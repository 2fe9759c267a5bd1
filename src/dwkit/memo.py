"""The package's one bounded memo type."""

from collections import OrderedDict, namedtuple

_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _Memo:
    """The ``maxsize`` most recently used key -> value pairs, with counts of
    hits and misses.  Each memo's bound, named next to it, is the least power
    of two at least twice the most keys one pass of a workload asks of it."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.entries = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key, make):
        value = self.entries.get(key)
        if value is not None:
            self.hits += 1
            self.entries.move_to_end(key)
            return value
        self.misses += 1
        value = self.entries[key] = make()
        if len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
        return value

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize,
                          len(self.entries))

    def cache_clear(self):
        self.entries.clear()
        self.hits = self.misses = 0
