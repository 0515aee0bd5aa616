"""Command-line entry point for the experiment harness.

Two invocation styles:

    modhilb run --config config.json
    modhilb <experiment-name> [--key value ...] --out results/

The second form builds a config on the fly; values are parsed as JSON
when possible (so --seed 7 is an int and --s_list "[3,4]" a list) and
fall back to plain strings.

Exit status: 0 on a pass, 1 on a completed run that fails its check, 2
(one line on stderr) on a refused config or a file it cannot read or write.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import EXPERIMENTS, ExperimentConfig, run


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _pairs_to_params(extras: list) -> dict:
    keys, values = extras[::2], extras[1::2]
    for i, key in enumerate(keys):
        if not key.startswith("--") or key == "--":
            raise ValueError(f"unexpected argument {key!r}")
        if i == len(values) or values[i].startswith("--"):
            raise ValueError(f"missing value for {key}")
    return {key[2:]: _parse_value(v) for key, v in zip(keys, values)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="modhilb",
        description="run a named experiment and write CSV + JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run from a JSON config file")
    run_p.add_argument("--config", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--out", required=True)

    try:
        if argv and argv[0] in EXPERIMENTS:
            name = argv[0]
            known, extras = sub.choices[name].parse_known_args(argv[1:])
            params = _pairs_to_params(extras)
            config = ExperimentConfig(name, params, output_path=known.out)
        else:
            args = parser.parse_args(argv)
            config = ExperimentConfig.from_json(args.config)
        report = run(config)
    except (OSError, ValueError) as exc:
        print(f"modhilb: error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.experiment}: pass={report.passed}")
    for k, v in report.summary.items():
        print(f"  {k}: {v}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
