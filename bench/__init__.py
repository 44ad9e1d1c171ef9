"""HTTP load benchmark for the XSACT service.

Boots a real ``python -m repro.cli serve`` process on the 1000-movie IMDB
snapshot and drives it from one client process (two threads, two keep-alive
connections).  ``python -m bench --help`` lists the entry points; README.md
in this directory describes the method.
"""
