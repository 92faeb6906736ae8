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
    score,
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
    configs = enumerate_configs(grid)[: args.limit]
    print(f"evaluating {len(configs)} of {grid.cardinality()} configurations")

    task = TaskSpec(kind=TASK_GAUSSIAN, n_samples=2000, dim=32,
                    seed=args.seed, noise_std=2.0)

    def evaluate(cfg):
        qcfg = build_qlinear_config(cfg, args.seed)
        tcfg = TrainConfig(qcfg=qcfg, hidden=(32,), epochs=args.epochs,
                           seed=args.seed)
        return train(task, tcfg).val_losses[-1]

    dense_qcfg = QLinearConfig(spec=BlockSpec(), quantize=False)
    dense_cfg = TrainConfig(qcfg=dense_qcfg, hidden=(32,), epochs=args.epochs,
                            seed=args.seed)
    m_ref = train(task, dense_cfg).val_losses[-1]

    losses = run_many(configs, evaluate, jobs=args.jobs)
    omegas = [complexity_points(cfg) for cfg in configs]
    points = [(w, score(m_ref, loss, w)) for w, loss in zip(omegas, losses)]

    print(f"{'omega':>6} {'score':>9} {'val_loss':>10}  configuration")
    rows = sorted(zip(points, losses, configs), key=lambda r: (r[0][0], -r[0][1]))
    for (omega, s), loss, cfg in rows:
        desc = (f"round={cfg.round_mode} quant_grad={cfg.quant_grad} "
                f"sr={cfg.sr} hadamard={cfg.hadamard}")
        print(f"{omega:>6.2f} {s:>9.4f} {loss:>10.4f}  {desc}")

    front = pareto_front(points)
    print("pareto frontier (complexity, score):",
          ", ".join(f"({points[i][0]:.2f}, {points[i][1]:.4f})" for i in front))


if __name__ == "__main__":
    main()
