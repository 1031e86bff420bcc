"""Set-up probe: a fresh process that gets ready to track one sequence.

    python3 perfbench/probe.py <detections file>

Imports the tracker, builds the default config, reads the detections
and creates a Tracker, then prints ``time.monotonic_ns()``: the moment
the first ``step`` could start. The parent, which noted the same clock
before starting this process, takes the difference as set-up time.
"""

import sys
import time


def main(path: str) -> None:
    from mipmot import io_formats
    from mipmot.tracker import Tracker, TrackerConfig

    config = TrackerConfig()
    detections = io_formats.read_detections(path)
    Tracker(config)
    print(time.monotonic_ns(), len(detections))


if __name__ == "__main__":
    main(sys.argv[1])
