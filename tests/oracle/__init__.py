"""Frozen reference implementation of the simulator.

These modules are verbatim copies of ``workload``, ``dynamics``, ``policy``
and ``engine`` from before the task-table rewrite, with only their imports
and their cache parameter (now the integer capacity) edited.
``tests/test_oracle.py`` runs them side by side with the current engine
and requires identical run metrics.
"""
