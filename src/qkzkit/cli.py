"""Command-line entry point: run verification suites from a JSON config.

Exit codes: 0 all checks exact, 1 at least one check failed, 2 config
error (unparsable, unknown fields, unsupported family, a report path that
cannot be written), 3 internal error (a normalization that fails included).
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

CONFIG_ERRORS = (KernelError, KeyError, ValueError, OSError, json.JSONDecodeError)


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
        "--d-override", dest="D", type=int, default=None,
        help="override the h-adic truncation order D",
    )
    return p


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def run(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    path = args.pop("config")
    try:
        # the given options replace the config's fields of the same name
        cfg = RunConfig.load(path, **{k: v for k, v in args.items() if v is not None})
        F = family_from_descriptor(
            {"family": cfg.family, "N": cfg.N, "D": cfg.D}
        )
        rows = suite_rows(cfg.suite)
    except CONFIG_ERRORS as e:
        return _fail(EXIT_CONFIG, f"config error: {e}")

    try:
        # a normalization that fails is a kernel fault, not a config error
        nf = load_normalized(F) if any(on_nf for _, on_nf, _ in rows) else None
    except Exception as e:
        return _fail(EXIT_INTERNAL, f"internal error: {e!r}")

    try:
        # the rows decode their instances against the normalized family
        specs = [spec for _, _, build in rows for spec in build(F, nf, cfg)]
    except CONFIG_ERRORS as e:
        return _fail(EXIT_CONFIG, f"config error: {e}")

    try:
        results = run_checks(specs)
        report = build_report(results, cfg.to_dict(), cfg.D)
        text = json.dumps(report, indent=2)
    except Exception as e:  # anything past config parsing is internal
        return _fail(EXIT_INTERNAL, f"internal error: {e!r}")
    try:
        if cfg.out:
            with open(cfg.out, "w") as f:
                f.write(text)
    except OSError as e:  # an unwritable report path is bad input, as a config
        return _fail(EXIT_CONFIG, f"config error: {e}")
    print(summary_text(results))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
