"""braidbowl: exact multi-ball bowling-alley representations of positive braids.

Everything is computed over Z[q] (or exact rationals after evaluation); no
floating point anywhere.
"""
