"""Applications built on the coding system.

- :mod:`repro.apps.file_transfer` — the file transmission application
  the paper builds "upon the system for driving the evaluation" (§V-A):
  a paced RLNC source and a decoding receiver with goodput accounting.
- :mod:`repro.apps.streaming` — live streaming: fixed-rate source and a
  playout-deadline receiver measuring on-time delivery.
"""

from repro.apps.file_transfer import (
    ControlRelay,
    NcReceiverApp,
    NcSourceApp,
    RepairingControlRelay,
    StripedReceiverAdapter,
    StripedSourceApp,
    TreeForwarder,
)
from repro.apps.streaming import StreamingReceiver, StreamingSource

__all__ = [
    "NcSourceApp",
    "NcReceiverApp",
    "StripedSourceApp",
    "StripedReceiverAdapter",
    "TreeForwarder",
    "ControlRelay",
    "RepairingControlRelay",
    "StreamingSource",
    "StreamingReceiver",
]
