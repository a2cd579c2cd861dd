"""Built-in rules; importing this package registers all of them."""

from repro.analysis.rules.rl001_unseeded_rng import UnseededRngRule
from repro.analysis.rules.rl002_gf_native_arith import GfNativeArithRule
from repro.analysis.rules.rl003_des_discipline import DesDisciplineRule
from repro.analysis.rules.rl004_signal_exhaustiveness import SignalExhaustivenessRule
from repro.analysis.rules.rl005_mutable_defaults import MutableDefaultArgsRule
from repro.analysis.rules.rl006_handler_purity import HandlerPurityRule
from repro.analysis.rules.rl007_fwdtab_text_format import ForwardingTableFormatRule
from repro.analysis.rules.rl008_measurement_windows import MeasurementWindowRule
from repro.analysis.rules.rl009_epoch_monotonicity import EpochMonotonicityRule
from repro.analysis.rules.rl011_unverified_buffering import UnverifiedBufferingRule
from repro.analysis.rules.rl012_port_over_bus import PortOverBusRule

__all__ = [
    "UnseededRngRule",
    "GfNativeArithRule",
    "DesDisciplineRule",
    "SignalExhaustivenessRule",
    "MutableDefaultArgsRule",
    "HandlerPurityRule",
    "ForwardingTableFormatRule",
    "MeasurementWindowRule",
    "EpochMonotonicityRule",
    "UnverifiedBufferingRule",
    "PortOverBusRule",
]
