from hypothesis import settings

# Every property test draws the same examples on every run, with no per-example
# deadline: tier-1 results must not depend on the random seed or machine load.
settings.register_profile("derandomized", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("derandomized")
