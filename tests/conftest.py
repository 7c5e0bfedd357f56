from hypothesis import settings

# Exact arithmetic is the ground truth of every identity, and every
# coefficient passes the shared-integer branch: CI runs tests/test_coeff.py
# under this profile (--hypothesis-profile=coefficients) with a larger budget
# than the default profile of the tier-1 run.
settings.register_profile("coefficients", max_examples=2000)
