"""A stateless ACL firewall compiled into table 0 of every switch.

The firewall owns the first pipeline table: deny rules drop, allow rules
(and the default-allow fallback) send the packet onward with
``goto_table``, where forwarding apps (learning switch, proactive router,
TE) operate.  This is the standard multi-table composition pattern —
policy first, forwarding second — and it means enforcement happens at
line rate in the dataplane, not in the controller.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.controller.core import App, SwitchHandle
from repro.controller.discovery import LLDP_RULE_PRIORITY
from repro.dataplane.match import FlowKey, Match
from repro.errors import ControllerError

__all__ = ["Firewall", "FirewallRule"]


class FirewallRule:
    """One ACL entry: a match pattern plus an allow/deny verdict."""

    __slots__ = ("rule_id", "match", "allow", "priority")

    def __init__(self, rule_id: int, match: Match, allow: bool,
                 priority: int) -> None:
        self.rule_id = rule_id
        self.match = match
        self.allow = allow
        self.priority = priority

    def __repr__(self) -> str:
        verdict = "allow" if self.allow else "deny"
        return f"<FirewallRule {self.rule_id} {verdict} {self.match!r}>"


class Firewall(App):
    """ACL enforcement in the first flow table.

    Parameters
    ----------
    table_id / next_table:
        The ACL table and where allowed traffic continues.
    default_allow:
        Verdict when no rule matches.  Deny-by-default networks set this
        False and whitelist flows explicitly.
    """

    name = "firewall"

    #: ACL priorities live below the discovery punt rule.
    MAX_PRIORITY = LLDP_RULE_PRIORITY - 1

    def __init__(self, table_id: int = 0, next_table: int = 1,
                 default_allow: bool = True) -> None:
        if next_table <= table_id:
            raise ControllerError("next_table must come after table_id")
        super().__init__()
        self.table_id = table_id
        self.next_table = next_table
        self.default_allow = default_allow
        self.rules: Dict[int, FirewallRule] = {}
        self._next_rule_id = 1

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def add_rule(self, match: Match, allow: bool = False,
                 priority: int = 1000) -> FirewallRule:
        """Install an ACL rule on every connected switch."""
        if not 0 < priority <= self.MAX_PRIORITY:
            raise ControllerError(
                f"firewall priority must be in (0, {self.MAX_PRIORITY}]"
            )
        rule = FirewallRule(self._next_rule_id, match, allow, priority)
        self._next_rule_id += 1
        self.rules[rule.rule_id] = rule
        for switch in self.controller.switches.values():
            self._install_rule(switch, rule)
        return rule

    def remove_rule(self, rule_id: int) -> None:
        rule = self.rules.pop(rule_id, None)
        if rule is None:
            raise ControllerError(f"no firewall rule with id {rule_id}")
        for switch in self.controller.switches.values():
            switch.delete_flows(
                match=rule.match,
                table_id=self.table_id,
                priority=rule.priority,
                strict=True,
            )

    def deny(self, priority: int = 1000, **match_fields) -> FirewallRule:
        """Shorthand: ``fw.deny(ip_src="10.0.0.1", l4_dst=80)``."""
        return self.add_rule(Match(**match_fields), allow=False,
                             priority=priority)

    def allow(self, priority: int = 1000, **match_fields) -> FirewallRule:
        return self.add_rule(Match(**match_fields), allow=True,
                             priority=priority)

    # ------------------------------------------------------------------
    # Switch programming
    # ------------------------------------------------------------------
    def on_switch_enter(self, switch: SwitchHandle) -> None:
        if switch.num_tables <= self.next_table:
            raise ControllerError(
                f"switch {switch.dpid} has {switch.num_tables} tables; "
                f"firewall needs table {self.next_table}"
            )
        # Default verdict at priority 0.
        if self.default_allow:
            switch.add_flow(Match(), [], priority=0,
                            table_id=self.table_id,
                            goto_table=self.next_table)
        else:
            switch.add_flow(Match(), [], priority=0,
                            table_id=self.table_id)
        for rule in self.rules.values():
            self._install_rule(switch, rule)

    def _install_rule(self, switch: SwitchHandle,
                      rule: FirewallRule) -> None:
        if rule.allow:
            switch.add_flow(rule.match, [], priority=rule.priority,
                            table_id=self.table_id,
                            goto_table=self.next_table)
        else:
            switch.add_flow(rule.match, [], priority=rule.priority,
                            table_id=self.table_id)

    # ------------------------------------------------------------------
    # Pure evaluation (used by tests and benchmark E7)
    # ------------------------------------------------------------------
    def evaluate(self, key: FlowKey) -> bool:
        """The verdict this rule set gives ``key`` (True = allow).

        Mirrors dataplane semantics: highest priority wins, ties broken
        by most recent insertion.
        """
        best: Optional[FirewallRule] = None
        for rule in self.rules.values():
            if not rule.match.matches(key):
                continue
            if best is None or rule.priority > best.priority or (
                rule.priority == best.priority
                and rule.rule_id > best.rule_id
            ):
                best = rule
        if best is None:
            return self.default_allow
        return best.allow
