"""Circuit simulator for nanodevices with non-monotonic I-V curves.

Deterministic analyses replace each nonlinear device by its positive chord
conductance per time step (one linear solve per step, no Newton loops);
uncertain inputs run through a fixed-step Euler-Maruyama ensemble engine.
"""

from .devices import (DeviceState, G_FLOOR, MosModel, NanowireModel, RtdModel,
                      V_EPS, device_step_bound, geq_predict, mos_current,
                      mos_geq, nanowire_current, nanowire_geq, rtd_current,
                      rtd_didv, rtd_dgeq_dv, rtd_geq)
from .mna import (Circuit, FlopCounter, MnaSystem, SingularSystemError, assemble,
                  solve)
from .netlist import (Dc, Element, ElementKind, Netlist, NetlistError, Pulse,
                      Pwl, eval_waveform, parse_netlist, parse_netlist_file,
                      parse_value, pretty_print)
from .nr import NrReport, brute_force_dc, flop_compare, nr_dc
from .stochastic import (EnsembleStats, WienerPath, em_transient, ensemble,
                         ito_sum, wiener_increments)
from .swec import (DcSweep, OperatingPoint, SimConfig, SimulationError,
                   WaveformSeries, dc_sweep, next_step_size, operating_point,
                   pin_source, transient)

__version__ = "0.1.0"
