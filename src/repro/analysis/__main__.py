"""Module entry point: ``python -m repro.analysis <experiment> ...``.

Flags handled by :func:`repro.analysis.experiments.main`:

* ``--verbose``/``-v`` — engine progress and diagnostics (INFO).
* ``--quiet``/``-q`` — errors only.

Exit codes: 0 success; 1 usage; 2 unknown experiment; 3 when any job in
an experiment failed (the failure tracebacks are printed to stderr and
recorded in the engine run manifest); 4 when every job ran but a result
broke one of the paper's claims (:mod:`repro.analysis.claims`).
"""

from repro.analysis.experiments import main

raise SystemExit(main())
