from hypothesis import settings

from probes import _cap_address_space

# The property tests run the slow symbolic oracles; per-example time on a
# shared CI runner varies too much for hypothesis' 200 ms default deadline.
settings.register_profile("jetjac", deadline=None)
settings.load_profile("jetjac")

# The suite runs under the address-space cap of each CLI probe, so a test
# that comes to build a dense layout ends in MemoryError instead of taking
# the runner's memory.
_cap_address_space()
