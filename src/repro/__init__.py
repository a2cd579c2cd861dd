"""repro — virtualized network coding functions on the Internet.

A full reproduction of Zhang et al., ICDCS 2017 (DOI
10.1109/ICDCS.2017.95): randomized linear network coding deployed as a
virtual network function across geo-distributed cloud data centers,
with a conceptual-flow deployment optimizer and dynamic scaling.

Public surface (see the package docstrings for detail):

- :mod:`repro.rlnc` — the codec (encoder / recoder / decoder / header);
- :mod:`repro.gf` — GF(2^w) arithmetic the codec runs on;
- :mod:`repro.core` — sessions, problem (2), controller, scaling, VNFs;
- :mod:`repro.net`, :mod:`repro.cloud` — simulated network and cloud;
- :mod:`repro.routing`, :mod:`repro.lp` — graph and LP machinery;
- :mod:`repro.baselines`, :mod:`repro.apps` — comparison systems and
  the driver applications;
- :mod:`repro.experiments` — the butterfly testbed and the six-DC
  dynamic scenario behind the paper's figures;
- :mod:`repro.cli` — ``python -m repro.cli`` experiment runner.
"""

__version__ = "1.0.0"
