import hashlib

import pytest

# sha256 of each demo's stdout, recorded when the demos were last changed
# on purpose; a change to the library that moves any printed byte fails
DEMO_STDOUT_SHA256 = {
    "accumulation_cone.py":
        "2849b33cf1d095674baa8243514abf4e4080c0572a2ef03d6b2bf5973621227a",
    "eisenstein_identities.py":
        "ace9b2c37d5da66aab03527489ca4d5bd36f09ad19952a44fc12c7b2375ead89",
    "lattice_cycles.py":
        "2e926204efe848182bba9b8cc596b372d119ae09773c337d37a7da2e00a4d168",
    "ray_convergence.py":
        "575fdcb85874db9ed77b240377359ee2eed62b80912f2abb8d507edd343d6289",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(run_python, demo):
    proc = run_python(f"demos/{demo}")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[demo], proc.stdout
