"""Command-line surface: every analysis as a batch command emitting CSV.

Angles are accepted in degrees and converted at this boundary.  Grids use
the syntax ``start:stop:count`` (inclusive linspace).  Exit codes: 0 ok,
2 domain error, 3 infeasible or inconsistent inputs, 4 oracle mismatch.

:func:`_emit` is the one place CSV is formatted, column by column: each
command passes the arrays it computed, and every cell is ``str()`` of its
value.  :func:`_write` is the one place a command's output goes to its file
or to stdout.  A config or output file that cannot be read or written ends
the command with ``error: ...`` and exit code 2.  The parser is built once
per process, so in-process callers of :func:`main` pay for it once.

``oracle-check`` compares the closed form with the exact dual oracle on
seeded random channels, one after another.  The oracle takes the range of
Tr[A X] over the feasible contractions from the Lagrange dual of the
spectral-norm ball and certifies it with a feasible X; its duality gap is
reported with the worst difference.  A channel is infeasible only when
the target band misses the range [-|B|_*, |B|_*] set by the constraint
matrix's nuclear norm.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .attacks import full_info_region
from .errors import (
    B92Error,
    DomainError,
    EstimationInfeasibleError,
    OracleInfeasibleError,
    UnreachableChannelError,
)
from .estimation import ChannelTriple
from .evebound import build_matrices, collision_gain, eve_bound, eve_max_gain, shannon_gain
from .infobounds import shannon_upper_bound
from .keyrate import (
    LINK_PRESETS,
    MODES,
    PhysicalLink,
    distance_sweep,
    key_gains,
    optimal_angles,
)
from .oracle import oracle_min_overlap_lossy
from .simulate import SimConfig, closed_loop_report

SCHEMAS = {
    "infogain": "eps,q_min,i_gc,i_gc_shannon,i_s_upper",
    "region": "alpha_deg,eps,full_info",
    "keygain": "eps,p_conc,e,i_gc,i_gf,g_correct,g_flipped,g,g_clipped",
    "optangle": "eps,alpha_opt_deg,g_opt",
    "distance": "l_km,g_b92,g_bb84,log10_g_b92,log10_g_bb84",
    "oracle-check": "sample,alpha_deg,theta_deg,eps,T,analytic,oracle,diff",
    "simulate": "(JSON result; --counts-csv writes the estimator's count record)",
}

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4


def _grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    return np.linspace(start, stop, count)


def _emit(args, header: str, columns) -> None:
    """Write a CSV with one row per entry of the equally long ``columns``.

    Each column, an array or a sequence, becomes Python values once and
    strings once, by ``str()``: for a double the shortest text that reads
    back as the same double.
    """
    cells = (map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns)
    _write(args.output, "\n".join([header, *map(",".join, zip(*cells)), ""]))


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_infogain(args) -> int:
    alpha = math.radians(args.alpha)
    alpha_prime = math.radians(args.alpha_prime if args.alpha_prime is not None
                               else args.alpha)
    theta = math.radians(args.theta)
    bound = eve_bound(alpha_prime, alpha, theta, args.eps_grid, args.T)
    bound.check()
    q = bound.overlap_min
    if args.theta == 0.0 and math.isclose(alpha, alpha_prime):
        upper = shannon_upper_bound(alpha, args.eps_grid, args.T).upper_bound
    else:
        upper = np.full_like(q, math.nan)
    _emit(args, SCHEMAS["infogain"],
          (args.eps_grid, q, collision_gain(q), shannon_gain(q), upper))
    return EXIT_OK


def cmd_region(args) -> int:
    region = full_info_region(np.radians(args.alpha_grid), args.eps_grid, args.T)
    # alpha-major rows: row k is (alpha[k // n_eps], eps[k % n_eps])
    alpha_text = list(map(str, args.alpha_grid.tolist()))
    eps_text = list(map(str, args.eps_grid.tolist()))
    _emit(args, SCHEMAS["region"],
          ([a for a in alpha_text for _ in eps_text], eps_text * len(alpha_text),
           region.ravel().astype(int)))
    return EXIT_OK


def cmd_keygain(args) -> int:
    g = key_gains(math.radians(args.alpha), 0.0, args.eps_grid, args.T, args.mode)
    g.check()
    # raw gain kept for root finding; the clipped copy is the usable rate.  The
    # clip leaves a gain of -0.0 as it is, where np.maximum would write 0.0
    _emit(args, SCHEMAS["keygain"],
          (args.eps_grid, g.p_conc, g.error_rate, g.info_correct, g.info_flipped,
           g.gain_correct, g.gain_flipped, g.gain, np.where(g.gain < 0.0, 0.0, g.gain)))
    return EXIT_OK


def cmd_optangle(args) -> int:
    alpha, gain = optimal_angles(0.0, args.eps_grid, args.T, args.mode)
    _emit(args, SCHEMAS["optangle"], (args.eps_grid, np.degrees(alpha), gain))
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.preset:
        link = LINK_PRESETS[args.preset]
    else:
        link = PhysicalLink(channel_loss_db_km=args.channel_loss,
                            receiver_loss_db=args.receiver_loss,
                            dark_mean=args.dark_mean,
                            det_efficiency=args.efficiency)
    sweep = distance_sweep(link, args.l_grid, math.radians(args.alpha), args.mode)
    gains = np.array([sweep.gain_b92, sweep.gain_bb84])
    # log10 where the gain is positive, NaN elsewhere
    logs = np.log10(gains, out=np.full_like(gains, math.nan), where=gains > 0.0)
    _emit(args, SCHEMAS["distance"], (sweep.length_km, *gains, *logs))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = SimConfig.from_file(args.config)
    result, report = closed_loop_report(config, args.mode)
    # the counts file first: a failed write leaves no JSON record behind
    if args.counts_csv:
        _write(args.counts_csv, result.counts.to_csv())
    record = result.record()
    record["key_gain"] = {
        "alpha_deg": math.degrees(report.alpha),
        "g": report.gain,
        "g_correct": report.gain_correct,
        "g_flipped": report.gain_flipped,
        "p_conc": report.p_conc,
        "e": report.error_rate,
        "mode": report.mode,
    }
    _write(args.output, json.dumps(record) + "\n")
    return EXIT_OK


def _oracle_sample(k: int, rng: np.random.Generator):
    while True:
        alpha = rng.uniform(math.radians(2.0), math.radians(80.0))
        theta = rng.uniform(math.radians(-30.0), math.radians(30.0))
        eps = rng.uniform(0.01, 0.9)
        transmission = rng.uniform(0.2, 1.0)
        triple = ChannelTriple(theta, eps, transmission)
        try:
            analytic = eve_max_gain(alpha, alpha, triple).overlap_min
        except UnreachableChannelError:
            continue  # inconsistent observed channel; resample
        a, b = build_matrices(alpha, theta, eps)
        oracle = oracle_min_overlap_lossy(a, b, alpha, transmission)
        row = (k, math.degrees(alpha), math.degrees(theta), eps, transmission,
               analytic, oracle.value, abs(analytic - oracle.value))
        return row, oracle.gap


def cmd_oracle_check(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1: {args.samples}")
    if not math.isfinite(args.tol):
        raise DomainError(f"--tol must be finite: {args.tol}")
    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative: {args.seed}")
    # one child generator per sample: sample k does not depend on the others
    sample_rngs = np.random.default_rng(args.seed).spawn(args.samples)
    rows, gaps = zip(*(_oracle_sample(k, r) for k, r in enumerate(sample_rngs)))
    _emit(args, SCHEMAS["oracle-check"], zip(*rows))
    # np.max propagates a NaN wherever it sits; a NaN difference never passes
    worst = np.max([row[-1] for row in rows])
    print(f"# worst_diff={worst:.3e} worst_gap={np.max(gaps):.3e}", file=sys.stderr)
    if not worst <= args.tol:
        return EXIT_MISMATCH
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b92sec",
        description="Eavesdropper bounds and key rates for the modified "
                    "two-state QKD protocol (angles in degrees, grids as "
                    "start:stop:count)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write CSV here instead of stdout")
        p.add_argument("--schema", action="store_true",
                       help="print the column contract and exit")
        return p

    p = add("infogain", cmd_infogain,
            "Eve's maximum information gain over a noise grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha-prime", type=float, default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps-grid", required=True, type=_grid)

    p = add("region", cmd_region, "full-information region scan")
    p.add_argument("--alpha-grid", required=True, type=_grid)
    p.add_argument("--eps-grid", required=True, type=_grid)
    p.add_argument("--T", type=float, default=1.0)

    p = add("keygain", cmd_keygain, "secret-key gain over a noise grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps-grid", required=True, type=_grid)
    p.add_argument("--mode", choices=MODES, default="collision")

    p = add("optangle", cmd_optangle, "optimal signal angle over a noise grid")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps-grid", required=True, type=_grid)
    p.add_argument("--mode", choices=MODES, default="collision")

    p = add("distance", cmd_distance, "distance sweep against BB84")
    p.add_argument("--preset", choices=sorted(LINK_PRESETS))
    p.add_argument("--channel-loss", type=float, default=0.2,
                   help="dB/km (ignored with --preset)")
    p.add_argument("--receiver-loss", type=float, default=1.0, help="dB")
    p.add_argument("--dark-mean", type=float, default=2e-4, help="per pulse")
    p.add_argument("--efficiency", type=float, default=0.18)
    p.add_argument("--alpha", type=float, default=11.0)
    p.add_argument("--l-grid", default="0:60:61", type=_grid)
    p.add_argument("--mode", choices=MODES, default="collision")

    p = add("simulate", cmd_simulate, "Monte-Carlo protocol run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--counts-csv", help="also write the estimator count record")
    p.add_argument("--mode", choices=MODES, default="collision")

    p = add("oracle-check", cmd_oracle_check,
            "compare the analytic bound against the exact dual oracle")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--tol", type=float, default=1e-3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.schema:
        print(f"{args.command} v{__version__}: {SCHEMAS[args.command]}")
        return EXIT_OK
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (EstimationInfeasibleError, UnreachableChannelError,
            OracleInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (B92Error, OSError, UnicodeDecodeError) as exc:
        # bad parameters, or a config or output file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
