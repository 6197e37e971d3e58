"""Test-input generation: seeded synthetic IR modules (:mod:`.generate`)."""
