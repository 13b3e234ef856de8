"""The wall-clock benchmark of the two things a user runs: SMO training
and served requests.  See ``bench/README.md``; run it with
``python -m bench run``."""
