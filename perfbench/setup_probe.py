"""Time kvwave's set-up in a fresh process and print it in seconds.

Set-up is ``import kvwave`` plus, for every run in one pass of the workload,
all the work before its first recurrence step: config resolution, mesh,
operators (assembly, dense copies, factorization), initial-data sampling and
bootstrap.  The run itself is timed through ``kvwave.run(..., n_steps=1)``.

    python3 perfbench/setup_probe.py <workload> <seed>

Run it with the checkout's ``src`` on PYTHONPATH, as perfbench/run.py does.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

PARAMETER_FIELDS = ("c1_sq", "c2_sq", "c3_sq", "delta", "alpha", "beta", "length", "t_final")


def set_up(kvwave, spec: dict) -> None:
    cfg = workloads.to_config(kvwave.cli, spec)
    params = kvwave.Parameters(**{name: getattr(cfg, name) for name in PARAMETER_FIELDS})
    mesh = kvwave.build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)
    dt, _ = kvwave.cli.resolve_time_step(cfg, params, mesh)
    kvwave.validate_run(params, mesh, dt, cfg.scheme)
    initial = kvwave.default_initial_data(params.length)
    kvwave.run(
        params, mesh, initial, dt, 1,
        scheme=cfg.scheme,
        observe_every=cfg.observe_every,
        verify_identity=cfg.verify_identity,
    )


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import kvwave

    for spec in workloads.specs(workload, seed):
        set_up(kvwave, spec)
    print(f"{time.perf_counter() - _START:.9f}")


if __name__ == "__main__":
    main()
