"""Benchmark harness for factorcrit; see README.md in this directory."""
