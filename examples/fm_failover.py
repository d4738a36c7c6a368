#!/usr/bin/env python3
"""Failover: the fabric's availability story.

1. The primary FM and its standby are placed by rule: the primary on
   the topology's FM host, the standby on the far-corner endpoint (the
   model's stand-in for the specification's election; the same rule
   ``repro failover`` and ``repro serve --standby`` use).
2. The primary discovers the fabric; the secondary heartbeats it.
3. The primary's endpoint dies.  The secondary detects the missed
   heartbeats, promotes itself, installs its mirror of the primary's
   database and re-reads every device's ports to repair what changed.

Run:  python examples/fm_failover.py
"""

from repro import make_mesh, run_until_ready
from repro.experiments import build_failover_pair


def main() -> None:
    # --- 1. placement -------------------------------------------------------
    setup, standby = build_failover_pair(
        make_mesh(3, 3),
        heartbeat_interval=2e-3, miss_threshold=3,
    )
    env, fabric, primary = setup.env, setup.fabric, setup.fm.endpoint
    print("Placement:")
    print(f"  primary   = {primary.name} (the topology's FM host)")
    print(f"  secondary = {standby.fm.endpoint.name} (the far-corner "
          f"endpoint)")

    # --- 2. primary discovers, secondary stands by -------------------------
    stats = run_until_ready(setup)
    print(f"\nPrimary discovery: {stats.discovery_time * 1e3:.3f} ms, "
          f"{len(setup.fm.database)} devices")
    standby.start()
    env.run(until=env.now + 20e-3)
    print(f"Standby after 20 ms: {standby.heartbeats_answered} heartbeats "
          f"answered, {standby.misses} misses")

    # --- 3. primary dies -----------------------------------------------------
    print(f"\nKilling the primary ({primary.name})...")
    fabric.remove_device(primary.name)
    report = env.run(until=standby.takeover_event)
    print(f"Takeover ({report.mode}): detected after "
          f"{report.missed_heartbeats} missed heartbeats; recovery took "
          f"{report.recovery_time * 1e3:.3f} ms, {report.repairs} "
          f"repairs")
    print(f"New manager {standby.fm.endpoint.name} knows "
          f"{len(standby.fm.database)} devices "
          f"(old primary and its endpoint are gone)")


if __name__ == "__main__":
    main()
