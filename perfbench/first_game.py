"""Set-up probe: a fresh process that stops its workload at the first game.

Runs imports, config construction and policy construction exactly as the
harness does, then prints the system-wide monotonic clock at the moment
the first game would start. The harness takes the clock before starting
this process, so the difference is set-up time from process start.

Usage: python3 perfbench/first_game.py --workload NAME --seed N --size full --out DIR
"""

from __future__ import annotations

import argparse
import time

from hostenv import prepare_process


class FirstGame(Exception):
    """Raised in place of the first game; carries the clock reading."""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    prepare_process()
    import instrument
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)

    def stop(_fn):
        def wrapper(*_args, **_kwargs):
            raise FirstGame(time.monotonic())
        return wrapper

    with instrument.Patcher() as patcher:
        patcher.wrap(*wl.first_game, stop)
        try:
            wl.call(args.out)
        except FirstGame as reached:
            print(repr(reached.args[0]))
            return
    raise SystemExit("perfbench: the workload finished without starting a game")


if __name__ == "__main__":
    main()
