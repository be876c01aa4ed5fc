"""Total-latency benchmark (see README.md; run with run.py)."""
