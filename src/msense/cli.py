"""Command line interface.

Subcommands: run, sweep, verify (pop|init), conc (noise|deviation|moment|asq),
phases, figures.  Exit codes: 0 success, 1 bad input or a failed write, 2 numeric failure.
Each subcommand yields its stdout lines and prints nothing: ``main`` prints them once
the command has returned or raised, so its files are written first.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import concentration as conc
from .csvio import check_output_path, read_trajectory_csv, write_mc_csv, write_trajectory_csv
from .errors import DivergenceError, InputError, NumericError, count
from .figures import reproduce_figures
from .harness import SWEEP_PARAMS, ExperimentConfig, detect_phases, run_experiment, sweep
from .problem import generate_ground_truth
from .rng import stream
from .subspace import (
    RHO_MAX,
    check_initialization,
    planted_init,
    region_sample,
    theory_step_size,
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
    out = config.output if args.out is None else args.out
    if out is not None:
        check_output_path(out)
    error = None
    try:
        traj = run_experiment(config, write_output=False)
    except DivergenceError as exc:  # the rows recorded up to the abort are written too
        traj, error = exc.trajectory, exc
    if out is not None:
        write_trajectory_csv(traj, out, timing=args.timing)
        yield f"wrote {out} ({len(traj.metrics)} rows)"
    if error is not None:
        raise error
    last = traj.metrics[-1]
    yield (f"final t={last.t} err_fro={last.err_fro:.6e} err_spec={last.err_spec:.6e} "
           f"D={last.D:.6e}")


def _cmd_sweep(args):
    config = _load_config(args.config)
    try:
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
    except (ValueError, RecursionError):  # as for a config file
        raise InputError(f"could not parse sweep values {args.values!r}") from None
    result = sweep(config, args.param, values, out=args.out)
    for row in result.rows:
        plateau = "n/a" if row.plateau_err_fro is None else f"{row.plateau_err_fro:.6e}"
        yield f"{row.param}={row.value}: plateau err_fro={plateau} status={row.status}"
    if result.slope is not None:
        yield f"log-log slope of plateau err_fro^2 vs n: {result.slope:.4f}"
    else:
        yield "log-log slope: undefined for this sweep"
    if args.out is not None:
        yield f"wrote {args.out}"


def _verify_trials(args):
    """The default ground truth of ``verify`` and each trial's seed, after checking --trials."""
    count("--trials", args.trials, 1)
    spec = DEFAULT_SPECTRUM
    gt = generate_ground_truth(spec["d"], spec["r"], spec["ds"], "zeros", args.seed)
    return gt, [(args.seed + trial) % 2**64 for trial in range(args.trials)]


def _cmd_verify_pop(args):
    gt, seeds = _verify_trials(args)
    eta = theory_step_size(gt.sigma1)
    reports = [verify_population_contraction(*region_sample(gt, DEFAULT_SPECTRUM["k"], seed),
                                             gt, eta) for seed in seeds]
    passed = sum(report.all_passed for report in reports)
    yield f"samples with all 8 inequalities passing: {passed}/{args.trials}"
    for checks in zip(*(report.checks for report in reports)):  # one inequality over all samples
        worst = max(chk.lhs - chk.rhs for chk in checks)
        yield (f"  {checks[0].name}: {sum(chk.passed for chk in checks)}/{args.trials} pass, "
               f"worst lhs-rhs = {worst:.3e} (units of sigma_r: {worst / gt.sigma_r:.3e})")


def _cmd_verify_init(args):
    gt, seeds = _verify_trials(args)
    reports = [check_initialization(planted_init(gt, DEFAULT_SPECTRUM["k"], RHO_MAX, seed), gt,
                                    RHO_MAX) for seed in seeds]
    yield f"basin assumption holds: {sum(r.assumption_ok for r in reports)}/{args.trials}"
    yield f"decomposed-norm implication holds: {sum(r.lemma_ok for r in reports)}/{args.trials}"


def _cmd_conc(args):
    if args.out is not None and args.kind in ("moment", "asq"):
        raise InputError(f"conc {args.kind} writes no per-trial CSV; drop --out")
    if args.out is not None:
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
    if args.out is not None:
        write_mc_csv(report, args.out)
    yield _json_text(report.summary())
    if args.kind == "asq":
        yield f"max |estimate - d I| entry: {abs(report.estimate - report.reference).max():.4f}"
    if args.out is not None:
        yield f"wrote {args.out}"


def _json_text(report):
    """The flat dict ``report`` as strict JSON: a non-finite value becomes null."""
    report = {key: None if isinstance(v, float) and not math.isfinite(v) else v
              for key, v in report.items()}
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def _cmd_phases(args):
    metrics = read_trajectory_csv(args.traj)
    yield _json_text(dataclasses.asdict(detect_phases(metrics, eta=args.eta)))


def _cmd_figures(args):
    return [f"wrote {path}" for path in reproduce_figures(args.out, seed=args.seed)]


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
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
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
    p_conc.add_argument("kind", choices=conc.KINDS)
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
    lines, code, message = [], 0, None
    try:
        args = build_parser().parse_args(argv)
        lines.extend(args.func(args))  # keeps the lines yielded before an error
    except InputError as exc:  # one line, even when the input holds a newline
        code, message = 1, "error: " + str(exc).replace("\n", "\\n")
    except NumericError as exc:
        code, message = 2, f"numeric failure: {exc}"
    except OSError as exc:  # raised inside a command, so an output file's: a full disk, a FIFO
        code, message = 1, f"error: write failed: {exc}"
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
    except BrokenPipeError as exc:  # stdout closed early, as by `msense ... | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush passes
        if not code:  # a command's own error is the one to report
            code, message = 1, f"error: cannot write to stdout: {exc}"
    if message:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
