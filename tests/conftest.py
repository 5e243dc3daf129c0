from hypothesis import settings

# The property tests run the slow symbolic oracles; per-example time on a
# shared CI runner varies too much for hypothesis' 200 ms default deadline.
settings.register_profile("jetjac", deadline=None)
settings.load_profile("jetjac")
