"""The package's one cached-property descriptor.

``functools.cached_property`` takes a lock on every first access before
Python 3.12, and a model family builds millions of objects whose cached
values are read once or twice each.  This descriptor behaves as 3.12's does:
the first access computes the value and stores it in the instance
``__dict__``, where every later lookup finds it before the descriptor (it
defines no ``__set__``).  Storing into ``__dict__`` directly also works on
frozen dataclasses.  Two threads racing on a first access may both compute
the value; every cached value here is a pure function of the instance.
"""

from __future__ import annotations


class cached_property:
    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
