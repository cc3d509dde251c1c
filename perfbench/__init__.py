"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <join|serve-batch|serve-mixed>
--seed <n> --seconds <s> --trace <0|1>`` generates seeded inputs, measures
one workload, checks every answer against brute-force oracles and prints
one JSON result line.  The modules here only wrap the library's public
calls; nothing under ``src/`` knows it is being measured.
"""
