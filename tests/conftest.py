import hypothesis

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100, print_blob=True,
)
hypothesis.settings.load_profile("default")
