"""Command line interface.

Verbs: `verify` (run the suite on a config), `body` (single-body operations),
`sweep` (scaling-limit sweeps only), `list-checkers`.  Exit codes: 0 all
holds, 1 any fails, 2 any inconclusive, 64 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import (
    BodySpec,
    SuiteConfig,
    body_operation,
    default_config,
    exit_code,
    report_json,
    run_suite,
    run_sweeps,
)
from .inequalities import checker_ids, checker_statement

EX_CONFIG = 64


def _read_json(path: str):
    """The JSON document in ``path``; ``ConfigError`` when it cannot be read
    (missing, a directory, unreadable) or does not parse."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_config(path: str | None) -> SuiteConfig:
    if path is None:
        return default_config()
    return SuiteConfig.from_json(_read_json(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zhangforge")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run the checker suite")
    p_verify.add_argument("--config", default=None, help="suite config JSON (default: built-in corpus)")
    p_verify.add_argument("--out", default=None, help="output directory for report files")
    p_verify.add_argument("--seed", type=int, default=None, help="override the global seed")
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes")

    p_body = sub.add_parser("body", help="single-body operation")
    p_body.add_argument("--spec", required=True, help="body spec JSON file")
    p_body.add_argument("--op", required=True, choices=["volume", "lattice", "steiner", "mu"])

    p_sweep = sub.add_parser("sweep", help="run only the scaling-limit sweeps")
    p_sweep.add_argument("--config", default=None)

    sub.add_parser("list-checkers", help="print the registry")

    args = parser.parse_args(argv)

    try:
        if args.verb == "verify":
            config = _load_config(args.config)
            if args.seed is not None:
                config.seed = args.seed
            doc = run_suite(config, out_dir=args.out, jobs=args.jobs)
            if args.out is None:
                sys.stdout.write(report_json(doc))
            else:
                s = doc["summary"]
                print(
                    f"total={s['total']} holds={s['holds']} fails={s['fails']}"
                    f" inconclusive={s['inconclusive']}"
                )
            return exit_code(doc["summary"])
        if args.verb == "body":
            spec = BodySpec.from_json(_read_json(args.spec))
            out = body_operation(spec, args.op)
            json.dump(out, sys.stdout, sort_keys=True, indent=1)
            sys.stdout.write("\n")
            return 0
        if args.verb == "sweep":
            config = _load_config(args.config)
            sweeps = run_sweeps(config)
            json.dump(sweeps, sys.stdout, sort_keys=True, indent=1)
            sys.stdout.write("\n")
            return 0
        if args.verb == "list-checkers":
            for cid in checker_ids():
                print(f"{cid}: {checker_statement(cid)}")
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EX_CONFIG
    return EX_CONFIG


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
