"""Benchmark harness for the cfrank pipeline.

`python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
runs one workload as fresh `cfrank` pipeline processes and prints one JSON
result line. See perfbench/README.md.
"""
