import json
import re
import sys
import threading

import pytest

from ocs.cache import cached, fetch, poset_key, store
from ocs.errors import InputError
from ocs.posets import chain_poset, mobius


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("OCS_CACHE", str(tmp_path))
    return tmp_path


def test_disabled_without_env(monkeypatch):
    monkeypatch.delenv("OCS_CACHE", raising=False)
    store("k", 1)
    assert fetch("k") == (False, None)


def test_round_trip_leaves_no_tmp(cache):
    p = chain_poset(3)
    key = poset_key(p, "mobius:0:2")
    assert fetch(key) == (False, None)
    assert cached(p, "mobius:0:2", lambda: mobius(p, 0, 2)) == 0
    assert fetch(key) == (True, 0)
    store(key, [[1, 2], {"a": 3}])
    assert fetch(key) == (True, [[1, 2], {"a": 3}])
    assert [f.name for f in cache.iterdir()] == [f"{key}.json"]


def test_concurrent_stores_of_one_key_leave_valid_json(cache):
    values = [[w] * 2000 for w in range(4)]
    errors = []

    def writer(value):
        try:
            for _ in range(50):
                store("k", value)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(v,)) for v in values]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert json.loads((cache / "k.json").read_text())["value"] in values
    assert [f.name for f in cache.iterdir()] == ["k.json"]


@pytest.mark.parametrize("data", [b"garbage", b"[1, 2]", b'{"key": "k"}', b"\xff"])
def test_corrupt_entry_is_an_input_error_naming_the_file(cache, data):
    path = cache / "k.json"
    path.write_bytes(data)
    with pytest.raises(InputError, match=re.escape(str(path))):
        fetch("k")
