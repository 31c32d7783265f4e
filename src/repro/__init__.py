"""ZenSDN: a from-scratch software-defined networking platform.

A reproduction of the system architecture championed by the SIGCOMM 2013
keynote *Zen and the art of network architecture* (Larry Peterson):
cleanly layered data plane, southbound protocol, controller, and
application planes, plus the distributed baselines the SDN position is
argued against.

Layer map (each package depends only on the ones above it):

- :mod:`repro.sim` — deterministic discrete-event kernel
- :mod:`repro.packet` — addresses, headers, byte-exact codecs
- :mod:`repro.dataplane` — match-action switch pipeline
- :mod:`repro.southbound` — the ZOF control protocol
- :mod:`repro.netem` — links, hosts, topologies, workloads
- :mod:`repro.controller` — controller core and services
- :mod:`repro.apps` — forwarding/policy/resource applications
- :mod:`repro.baselines` — distributed STP and link-state competitors
- :mod:`repro.core` — the assembled platform
- :mod:`repro.analysis` — statistics and artifact rendering
- :mod:`repro.telemetry` — metrics, packet traces, flow records
"""

from repro.core.platform import ZenPlatform
from repro.errors import ZenError
from repro.netem.topology import Topology
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry

__version__ = "1.0.0"

__all__ = ["Simulator", "Telemetry", "Topology", "ZenError", "ZenPlatform",
           "__version__"]
