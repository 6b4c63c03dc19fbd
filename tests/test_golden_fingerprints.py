"""Golden run fingerprints: refactors and speed-ups must change no bytes.

Each digest is the sha256 of ``RunResult.to_json(deterministic=True)``
for one short run, recorded before the testbed builders were folded into
``repro.core.testbed.assemble``. A change that moves any of them changed
the simulation, not just its code. Regenerate a digest only for a change
that is meant to alter results, and say so where the change is
described.
"""

import hashlib

import pytest

from repro.core.config import SystemSpec
from repro.core.run import run_spec
from repro.sim.kernel import MILLISECOND

RUN_NS = 10 * MILLISECOND

# Both microwave circuits down for 3 ms: the feed leg and the order leg.
WAN_MICROWAVE_DOWN = (
    ("kind", "link_down"), ("target", "wan.microwave.*"),
    ("at_ns", 2 * MILLISECOND), ("duration_ns", 3 * MILLISECOND),
)

# (design, seed, extra SystemSpec fields) -> sha256 of the run's bytes.
GOLDEN = {
    ("design1", 1, ()): "6986991bd72813d992666d1243973e4a159672d616a55eaad3dc70f4b223d51a",
    ("design1", 2, ()): "a5b83ec100dd6e97a71978edb6cff49855baca32d0c9ca99527885b6125a236e",
    ("design1", 3, ()): "47d0dd186b9451311ccde615465b70046dcb9832e5660b5c59c5eac2c5c9db40",
    ("design2", 1, ()): "9b4d321f123d719991abdcf79ea7e4abe8f8d6b3bffaf4a7e6e601b2e57c2109",
    ("design2", 2, ()): "3c81734951ea238097a2d9d84a31bc0f3b668dba3194470bc9034ffefd6b9b19",
    ("design2", 3, ()): "db790612c0c8e93180dad8a12b8d6335cbde0125b48d5cc2e7f0a0aaa23124a7",
    ("design3", 1, ()): "37396ae57aa037d4ce96fc83f4412452b703d550fa894dc748f56246ed23d825",
    ("design3", 2, ()): "1d82ee680584b362eeff76ffad26b86e54b6df271d1d39e51cad9bdae58620be",
    ("design3", 3, ()): "5b6437a292646a6e49b896a0219e7e9898ae888e98194cc65f4abb678616cbc0",
    ("design4", 1, ()): "a6b06d1c58bcffb17d922323c2701d2d169ec99ee7a9ed12df9dab9aa0e61997",
    ("design4", 2, ()): "079f50f56e9fc05f90998e51742ec710c2aa76ee6e75fe2563f5cf6b8c090bea",
    ("design4", 3, ()): "33d7ca88a8cbe064245e2a61dbb50fb436180d806629b5aff1fa01b3360905fe",
    ("wan", 1, ()): "4c10b5384140936f51f826d2b0fc6beb8d41b20114173a70102e4565d7df28bf",
    ("wan", 2, ()): "8712a3866073e69717cfa5d8b9b80859f90d5a0195c4f07c174579f121f79bd7",
    ("wan", 3, ()): "b8b932ad3a9f7ca23980b328277d63dadb5b6c61ee98f8a53a75f56bbd6f12e0",
    ("design3", 1, (("n_normalizers", 2),)):
        "3e506c13177b08c5ac60d05ce434655bb3d27aedb4df7a0c129e5453b7d18088",
    ("design4", 1, (("subscriptions_per_strategy", 2),)):
        "7fe9d35215627545758ebe056cd9eb3818553cfe42e8cf0c3bfa7f433c4fc677",
    ("design1", 1, (("telemetry", True),)):
        "ef0d45dbbde6016d6350e34ba1e3a8be1d8390308494cd252bbd11dc2372bb53",
    # Large Zipf universes and several flows on one universe, recorded
    # before symbol sampling moved off ``Generator.choice``.
    ("design3", 1, (("n_symbols", 8192), ("exchange_partitions", 64),
                    ("firm_partitions", 1024))):
        "c0108150f72b65700d5576436f5598640a4a29eed04c5d3f498accaa7fb27973",
    ("design1", 1, (("n_symbols", 8192),)):
        "0257a63c525fe4887c93fd9b1ff3867ba25fa49bcb8a75961df8a4483fea2e6c",
    ("multivenue", 1, ()):
        "027c7968ea24b022a5c7ef0b561129eaadccd58fa3a8550009adf1d9373e2134",
    # The WAN with NIC and link names in its counters, and chaos on the
    # WAN, recorded before the WAN build became a fabric.
    ("wan", 1, (("telemetry", True),)):
        "79b08fa081d4f76345098ca113cb089e19fe69cc07bad1f7440af3c642e2c299",
    ("wan", 1, (("faults", (WAN_MICROWAVE_DOWN,)), ("lifecycle", True))):
        "f20a13261f5aadd2d11e331106a290176d9f81ab591ae8a909eff92deb4af675",
}


def _case_id(case):
    design, seed, extra = case
    fields = (
        f"{k}={'+'.join(dict(f)['kind'] for f in v)}" if k == "faults" else f"{k}={v}"
        for k, v in extra
    )
    return "-".join([design, f"seed{seed}", *fields])


@pytest.mark.parametrize("case", list(GOLDEN), ids=_case_id)
def test_run_bytes_match_golden(case):
    design, seed, extra = case
    spec = SystemSpec(design=design, seed=seed, run_ns=RUN_NS, **dict(extra))
    text = run_spec(spec).to_json(deterministic=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[case]
