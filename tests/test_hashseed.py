"""Path placement must not depend on ``PYTHONHASHSEED``.

Address objects hash a ``str`` tag and so are salted per process; the
two forwarding decisions that used to hash them (TE's ``ecmp``
placement, the load balancer's ``hash`` mode) now hash integer values.
The same script in two interpreters under different hash seeds must
print the same placements and backend choices.
"""

import json
import os
import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import json

    import networkx as nx

    from repro.apps import Demand, LoadBalancer, ProactiveRouter, ecmp_place
    from repro.core import ZenPlatform
    from repro.netem import Topology

    # TE: eight demands hashed over four equal-cost arms.
    graph = nx.Graph()
    for arm in (2, 3, 4, 5):
        graph.add_edges_from([(1, arm), (arm, 6)])
    demands = [Demand(f"10.0.1.{i}", "10.0.0.6", 1e6) for i in range(1, 9)]
    placed = ecmp_place(graph, demands,
                        lambda ip: 6 if str(ip) == "10.0.0.6" else 1)
    print(json.dumps([path[1] for path in placed.paths.values()]))

    # LB: hash mode, eight client ports over three backends.
    platform = ZenPlatform(Topology.single(4, bandwidth_bps=1e9),
                           profile="bare")
    platform.add_app(ProactiveRouter(table_id=1))
    lb = platform.add_app(LoadBalancer(
        vip="10.0.99.1", backends=["10.0.0.2", "10.0.0.3", "10.0.0.4"],
        mode="hash", table_id=0, next_table=1))
    platform.start()
    h1 = platform.host("h1")
    for name in ("h2", "h3", "h4"):
        platform.host(name).ping(h1.ip, count=1)
    platform.run(3.0)
    for port in range(4000, 4008):
        h1.send_udp(lb.vip, port, 8080, b"req")
    platform.run(2.0)
    print(json.dumps(sorted(
        (str(ip), n) for ip, n in lb.assignments.items())))
""")


def run_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_placement_is_the_same_under_two_hash_seeds():
    first, second = run_under("1"), run_under("2")
    assert first == second
    arms, backends = map(json.loads, first.splitlines())
    assert len(set(arms)) > 1  # the hash still spreads
    assert sum(n for _ip, n in backends) == 8
