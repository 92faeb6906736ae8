#!/usr/bin/env python3
"""Enumerate a restricted configuration grid, train each candidate on a tiny
regression task, score the results against the quantization-disabled
reference, and print the complexity/score Pareto frontier."""

import argparse

from mxsim.mx import BlockSpec
from mxsim.qlinear import QLinearConfig
from mxsim.sweep import (
    SweepGrid,
    build_qlinear_config,
    complexity_points,
    enumerate_configs,
    pareto_front,
    run_many,
    score_report,
)
from mxsim.trainer import TASK_GAUSSIAN, TaskSpec, TrainConfig, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=12)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    grid = SweepGrid(
        scale_formats=("E8M0",),
        max_grads=("STE",),
        round_modes=("TiesToEven", "Stochastic"),
        quant_grads=("STE", "spline"),
        scale_grads=("STE",),
        tensor_grads=("N/A",),
        optimisers=("Adam",),
        loss_scalings=(False,),
        tensor_scalings=(False,),
        srs=("None", "all"),
        hadamards=("None", "all"),
    )
    report = enumerate_configs(grid)
    configs = report.configs[: args.limit]
    print(f"evaluating {len(configs)} of {report.raw_count} configurations")

    task = TaskSpec(kind=TASK_GAUSSIAN, n_samples=2000, dim=32,
                    seed=args.seed, noise_std=2.0)

    def evaluate(cfg):
        qcfg = build_qlinear_config(cfg)
        tcfg = TrainConfig(qcfg=qcfg, hidden=(32,), epochs=args.epochs,
                           seed=args.seed)
        return train(task, tcfg).val_losses[-1]

    dense_qcfg = QLinearConfig(spec=BlockSpec(), quantize=False)
    dense_cfg = TrainConfig(qcfg=dense_qcfg, hidden=(32,), epochs=args.epochs,
                            seed=args.seed)
    m_ref = train(task, dense_cfg).val_losses[-1]

    losses = run_many(configs, evaluate, jobs=args.jobs)
    reports = []
    for i, (cfg, loss) in enumerate(zip(configs, losses)):
        omega = complexity_points(cfg)
        reports.append((score_report(f"cfg{i}", m_ref, loss, omega), cfg))

    print(f"{'omega':>6} {'score':>9} {'val_loss':>10}  configuration")
    for rep, cfg in sorted(reports, key=lambda r: (r[0].omega, -r[0].score)):
        desc = (f"round={cfg.round_mode} quant_grad={cfg.quant_grad} "
                f"sr={cfg.sr} hadamard={cfg.hadamard}")
        print(f"{rep.omega:>6.2f} {rep.score:>9.4f} {rep.m_c:>10.4f}  {desc}")

    front = pareto_front([(rep.omega, rep.score) for rep, _ in reports])
    print("pareto frontier (complexity, score):",
          ", ".join(f"({r.omega:.2f}, {r.score:.4f})"
                    for r in (reports[i][0] for i in front)))


if __name__ == "__main__":
    main()
