"""Command-line entry point: run verification suites from a JSON config.

Exit codes: 0 all checks exact, 1 at least one check failed, 2 config
error (unparsable, unknown fields, unsupported family), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import load_normalized
from .errors import KernelError
from .families import family_from_descriptor
from .serialize import RunConfig
from .suites import SUITE_NAMES, build_report, run_checks, suite_rows, summary_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qkzkit",
        description="Exact verification of spectral R-matrix identities "
        "and the difference connection they generate.",
    )
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument(
        "--suite", choices=SUITE_NAMES, default=None,
        help="override the suite named in the config",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="accepted; checks run serially; the report does not depend on it",
    )
    p.add_argument(
        "--d-override", type=int, default=None,
        help="override the h-adic truncation order D",
    )
    return p


def collect_specs(cfg: RunConfig, F, suite: str):
    rows = suite_rows(suite)
    nf = load_normalized(F) if any(on_nf for _, on_nf, _ in rows) else None
    return [spec for _, _, build in rows for spec in build(F, nf, cfg)]


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.suite:
            cfg.suite = args.suite
        if args.jobs is not None:
            cfg.jobs = args.jobs
        if args.out is not None:
            cfg.out = args.out
        if args.d_override is not None:
            cfg.D = args.d_override
        least_d = max(d for d, _, _ in suite_rows(cfg.suite))
        if cfg.D < least_d:
            raise KernelError(
                f"suite {cfg.suite!r} needs D >= {least_d}, got {cfg.D}"
            )
        F = family_from_descriptor(
            {"family": cfg.family, "N": cfg.N, "D": cfg.D}
        )
        specs = collect_specs(cfg, F, cfg.suite)
    except (KernelError, KeyError, ValueError, OSError,
            json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        results = run_checks(specs)
        report = build_report(results, cfg.to_dict(), cfg.D)
        if cfg.out:
            with open(cfg.out, "w") as f:
                json.dump(report, f, indent=2)
        print(summary_text(results))
    except Exception as e:  # anything past config parsing is internal
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
