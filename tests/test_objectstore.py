"""Unit tests for the object store."""

import pytest

from repro.errors import (
    BucketAlreadyExistsError,
    InvalidRangeError,
    NoSuchBucketError,
    NoSuchObjectError,
)
from repro.objectstore import ObjectStore


@pytest.fixture()
def store():
    s = ObjectStore()
    s.create_bucket("data")
    return s


class TestObjectStore:
    def test_put_get(self, store):
        store.put_object("data", "a/b.bin", b"hello")
        assert store.get_object("data", "a/b.bin") == b"hello"

    def test_missing_bucket(self, store):
        with pytest.raises(NoSuchBucketError):
            store.get_object("nope", "k")

    def test_missing_object(self, store):
        with pytest.raises(NoSuchObjectError):
            store.get_object("data", "nope")

    def test_duplicate_bucket(self, store):
        with pytest.raises(BucketAlreadyExistsError):
            store.create_bucket("data")

    def test_range_get(self, store):
        store.put_object("data", "k", b"0123456789")
        assert store.get_object_range("data", "k", 2, 4) == b"2345"

    def test_range_out_of_bounds(self, store):
        store.put_object("data", "k", b"0123")
        with pytest.raises(InvalidRangeError):
            store.get_object_range("data", "k", 2, 10)

    def test_list_with_prefix(self, store):
        for key in ("t/a", "t/b", "u/c"):
            store.put_object("data", key, b"x")
        assert store.list_objects("data", "t/") == ["t/a", "t/b"]
        assert len(store.list_objects("data")) == 3

    def test_head_and_metadata(self, store):
        store.put_object("data", "k", b"abc", metadata={"codec": "zstd"})
        head = store.head_object("data", "k")
        assert head["size"] == 3
        assert head["metadata"]["codec"] == "zstd"

    def test_delete(self, store):
        store.put_object("data", "k", b"x")
        store.bucket("data").delete("k")
        with pytest.raises(NoSuchObjectError):
            store.get_object("data", "k")

    def test_total_bytes(self, store):
        store.put_object("data", "t/a", b"xx")
        store.put_object("data", "t/b", b"yyy")
        assert store.bucket("data").total_bytes("t/") == 5
