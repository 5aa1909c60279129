"""Command line interface.

Subcommands: run, sweep, verify (pop|init), conc (noise|deviation|moment|asq),
phases, figures.  Exit codes: 0 success, 1 bad input, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import concentration as conc
from .csvio import check_output_path, read_trajectory_csv, write_trajectory_csv
from .errors import DivergenceError, InputError, NumericError
from .figures import reproduce_figures
from .gradient import theory_step_size
from .harness import ExperimentConfig, detect_phases, run_experiment, sweep
from .problem import generate_ground_truth
from .rng import stream
from .subspace import (
    check_initialization,
    planted_init,
    region_sample,
    verify_population_contraction,
)

DEFAULT_SPECTRUM = dict(d=20, r=3, k=4, ds=(1.0, 0.9, 0.8))


def _load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also past 4300 digits or nested too deep
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _cmd_run(args):
    config = _load_config(args.config)
    out = args.out or config.output
    if out:
        check_output_path(out)
    traj = None
    try:
        traj = run_experiment(config, write_output=False)
    except DivergenceError as exc:
        traj = exc.trajectory  # keep the rows recorded up to the abort
        raise
    finally:
        if out and traj is not None:
            write_trajectory_csv(traj, out, timing=args.timing)
            print(f"wrote {out} ({len(traj.metrics)} rows)")
    last = traj.metrics[-1]
    print(
        f"final t={last.t} err_fro={last.err_fro:.6e} err_spec={last.err_spec:.6e} "
        f"D={last.D:.6e}"
    )
    return 0


def _cmd_sweep(args):
    config = _load_config(args.config)
    try:
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
    except (ValueError, RecursionError):  # as for a config file
        raise InputError(f"could not parse sweep values {args.values!r}") from None
    result = sweep(config, args.param, values, out=args.out)
    for row in result.rows:
        plateau = "n/a" if row.plateau_err_fro is None else f"{row.plateau_err_fro:.6e}"
        print(f"{row.param}={row.value}: plateau err_fro={plateau} status={row.status}")
    if result.slope is not None:
        print(f"log-log slope of plateau err_fro^2 vs n: {result.slope:.4f}")
    else:
        print("log-log slope: undefined for this sweep")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _verify_trials(args):
    """The default ground truth of ``verify`` and each trial's seed, after checking --trials."""
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    spec = DEFAULT_SPECTRUM
    gt = generate_ground_truth(spec["d"], spec["r"], spec["ds"], "zeros", args.seed)
    return gt, [(args.seed + trial) % 2**64 for trial in range(args.trials)]


def _cmd_verify_pop(args):
    gt, seeds = _verify_trials(args)
    eta = theory_step_size(gt.sigma1)
    counts = {}
    worst = {}
    all_pass = 0
    for seed in seeds:
        s, t = region_sample(gt, DEFAULT_SPECTRUM["k"], seed)
        report = verify_population_contraction(s, t, gt, eta)
        if report.all_passed:
            all_pass += 1
        for chk in report.checks:
            counts[chk.name] = counts.get(chk.name, 0) + (1 if chk.passed else 0)
            gap = chk.lhs - chk.rhs
            if chk.name not in worst or gap > worst[chk.name]:
                worst[chk.name] = gap
    print(f"samples with all 8 inequalities passing: {all_pass}/{args.trials}")
    for name in counts:
        print(
            f"  {name}: {counts[name]}/{args.trials} pass, "
            f"worst lhs-rhs = {worst[name]:.3e} (units of sigma_r: {worst[name] / gt.sigma_r:.3e})"
        )
    return 0


def _cmd_verify_init(args):
    gt, seeds = _verify_trials(args)
    rho = 0.07
    ok_assumption = ok_lemma = 0
    for seed in seeds:
        f0 = planted_init(gt, DEFAULT_SPECTRUM["k"], rho, seed)
        report = check_initialization(f0, gt, rho)
        ok_assumption += report.assumption_ok
        ok_lemma += report.lemma_ok
    print(f"basin assumption holds: {ok_assumption}/{args.trials}")
    print(f"decomposed-norm implication holds: {ok_lemma}/{args.trials}")
    return 0


def _cmd_conc(args):
    if args.out and args.kind in ("moment", "asq"):
        raise InputError(f"conc {args.kind} writes no per-trial CSV; drop --out")
    if args.out:
        check_output_path(args.out)
    conc.check_mc_memory(args.kind, args.d, args.n, args.trials)  # before U is drawn
    if args.kind in ("deviation", "moment"):
        u = stream(args.seed, f"mc_{args.kind}", 2**32).standard_normal((args.d, args.d))
        u = 0.5 * (u + u.T)
    report = {
        "noise": lambda: conc.mc_noise_term(args.d, args.sigma, args.n, args.trials, args.seed),
        "deviation": lambda: conc.mc_sensing_deviation(u, args.n, args.trials, args.seed).report,
        "moment": lambda: conc.mc_second_moment(u, args.trials, args.seed),
        "asq": lambda: conc.mc_A_squared(args.d, args.trials, args.seed),
    }[args.kind]()
    _print_json(report.summary())
    if args.kind == "asq":
        print(f"max |estimate - d I| entry: {abs(report.estimate - report.reference).max():.4f}")
    if args.out:
        conc.write_mc_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _print_json(report):
    """Print the flat dict ``report`` as strict JSON: a non-finite value prints as null."""
    report = {key: None if isinstance(v, float) and not math.isfinite(v) else v
              for key, v in report.items()}
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _cmd_phases(args):
    metrics = read_trajectory_csv(args.traj)
    _print_json(dataclasses.asdict(detect_phases(metrics, eta=args.eta)))
    return 0


def _cmd_figures(args):
    written = reproduce_figures(args.out, seed=args.seed)
    for path in written:
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are InputErrors: exit 1 with one line."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="msense",
        description="Factorized gradient descent laboratory for low-rank matrix sensing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="trajectory CSV path (overrides config)")
    p_run.add_argument("--timing", action="store_true", help="fill the elapsed_ms column")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=("n", "k", "sigma", "d"))
    p_sweep.add_argument("--values", required=True, help="comma-separated grid values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="numerical verification batteries")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    p_pop = verify_sub.add_parser("pop", help="one-step population contraction inequalities")
    p_pop.add_argument("--trials", type=int, default=100)
    p_pop.add_argument("--seed", type=int, default=0)
    p_pop.set_defaults(func=_cmd_verify_pop)
    p_init = verify_sub.add_parser("init", help="basin-initialization implication")
    p_init.add_argument("--trials", type=int, default=200)
    p_init.add_argument("--seed", type=int, default=0)
    p_init.set_defaults(func=_cmd_verify_init)

    p_conc = sub.add_parser("conc", help="Monte Carlo concentration checks")
    p_conc.add_argument("kind", choices=("noise", "deviation", "moment", "asq"))
    p_conc.add_argument("--d", type=int, default=20)
    p_conc.add_argument("--n", type=int, default=1000)
    p_conc.add_argument("--trials", type=int, default=50)
    p_conc.add_argument("--seed", type=int, default=0)
    p_conc.add_argument("--sigma", type=float, default=1.0)
    p_conc.add_argument("--out", default=None)
    p_conc.set_defaults(func=_cmd_conc)

    p_phases = sub.add_parser("phases", help="phase detection on a trajectory CSV")
    p_phases.add_argument("--traj", required=True)
    p_phases.add_argument(
        "--eta", type=float, default=None,
        help="step size of the run (enables recursion/envelope checks)",
    )
    p_phases.set_defaults(func=_cmd_phases)

    p_figs = sub.add_parser("figures", help="reproduce the reference figures")
    p_figs.add_argument("--out", required=True)
    p_figs.add_argument("--seed", type=int, default=2020)
    p_figs.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:  # one line, even when the input holds a newline
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
