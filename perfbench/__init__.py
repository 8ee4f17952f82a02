"""The causact benchmark: see run.py."""
