"""The uwqkd benchmark: closed-loop key-exchange sessions, timed end to end,
plus a separate traced run that times the calls into each layer.

Run it from the repository root::

    python3 perfbench/run.py --workload tank --seed 1 --seconds 50 --trace 0
"""
