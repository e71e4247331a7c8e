"""hjwave benchmark harness (run with ``python3 bench/run.py``)."""
