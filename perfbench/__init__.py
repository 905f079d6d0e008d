"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Three workloads (``lowend``, ``swp``, ``serve``) measured end to end, plus a
traced mode that attributes op wall time to the program's layers by
wrapping their public entry points from here, outside ``src/``.  See
``perfbench/NOTES.md`` for what each workload and metric means.
"""
