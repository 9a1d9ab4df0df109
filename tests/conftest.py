from hypothesis import settings

# property tests do real numerical work; wall-clock deadlines only add flakes,
# and a fixed draw makes each run test the same examples
settings.register_profile("no_deadline", deadline=None, derandomize=True)
settings.load_profile("no_deadline")
