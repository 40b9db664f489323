from hypothesis import settings

settings.register_profile("exact", deadline=None)
# about ten times the examples of the default run, for one test at a time:
# pytest --hypothesis-profile deep -k <test>
settings.register_profile("deep", settings.get_profile("exact"), max_examples=1000)
settings.load_profile("exact")
