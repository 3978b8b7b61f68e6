"""Tests of the benchmark's checks run against the checkout's own sources:
python3 -m pytest -q perfbench"""

import program

program.use_checkout_sources()
