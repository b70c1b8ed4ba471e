"""
Building and validating attack countermeasure trees
====================================================

Construct a small model two ways (builder API and text format), check it,
and see what each defender scenario reads from it.
"""

from actkit import (
    Scenario,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    parse_act,
    serialize_act,
    static_probability,
    validate_act,
)
from actkit.semantics import collect_rates

# A server is compromised when the exploit lands AND the intrusion
# countermeasure (detector followed by a mitigation) does not stop it.
act = build_act("Server compromise", and_gate(
    "compromise",
    attack("deploy exploit", p=0.7),
    cm_gate("intrusion response",
            detect("ids alert", p=0.6),
            mitigate("quarantine host", p=0.8)),
))

# validate_act returns one diagnostic per broken structural rule
print("diagnostics:", validate_act(act) or "none")

# The same model as text. parse_act/serialize_act round-trip byte-exactly.
text = serialize_act(act)
print()
print(text)
assert serialize_act(parse_act(text)) == text

# Every analysis reads the model as written and takes the scenario as the law
# of each countermeasure, in rates per hour:
#   full        detection, then mitigation
#   detect-only detection, then instant mitigation
#   no-cm       no law, so the countermeasure's AND gate is a plain AND
for scenario in Scenario:
    _, cm_laws = collect_rates(act, scenario)
    laws = [f"{act.nodes[nid].name} (detect {law.detect:.3g}/h, mitigate "
            + ("instantly)" if law.mitigate is None else f"{law.mitigate:.3g}/h)")
            for nid, law in cm_laws.items()]
    print(f"{scenario.value:12s} P(goal) = {static_probability(act, scenario):.4f}, laws: {', '.join(laws) or 'none'}")
