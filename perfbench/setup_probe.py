"""One set-up of a workload, timed from outside by the benchmark.

    python perfbench/setup_probe.py COMMAND CONFIG_JSON

Imports ``lamsep.cli``, parses the config and, for ``simulate``, returns from
``nssim.init_sim`` on it: what every invocation of the workload pays before
its own work starts.
"""

from __future__ import annotations

import sys

import lamsep.cli as cli
from lamsep import nssim


def main(argv: list[str]) -> int:
    command, config_path = argv
    cfg = cli.parse_config(config_path, command=command)
    if command == "simulate":
        opts = cfg.options
        nssim.init_sim(nssim.SimConfig(
            arc=cfg.arc, params=cfg.params,
            n_s=int(opts["n_s"]), n_r=int(opts["n_r"]), t_end=float(opts["t_end"]),
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
