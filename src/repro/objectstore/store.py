"""Flat bucket/object store with byte-range reads.

Pure data structure: the *cost* of serving a request is charged by
whichever simulated node hosts the store (the OCS storage node), not
here.  Keys are arbitrary strings; LIST supports prefix filtering like
S3's ``list-objects-v2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import (
    BucketAlreadyExistsError,
    InvalidRangeError,
    NoSuchBucketError,
    NoSuchObjectError,
)

__all__ = ["StoredObject", "Bucket", "ObjectStore"]


@dataclass
class StoredObject:
    """One object: payload bytes plus user metadata.

    ``version`` is a monotonic write counter: each PUT to the same key
    produces a StoredObject with the predecessor's version + 1.  Cache
    entries record the versions of every object they derive from and
    treat any mismatch as an invalidation — rewriting an object with
    identical bytes still bumps the version (like an S3 ETag rollover),
    which is exactly the conservative behavior the cache wants.
    """

    key: str
    data: bytes
    metadata: Dict[str, str] = field(default_factory=dict)
    version: int = 1
    #: A reader's parse of ``data`` (the Parcel footer), memoised on the
    #: object.  A re-PUT makes a new object, so a memo never outlives the
    #: bytes it was parsed from.
    footer: Any = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.data)


class Bucket:
    """A flat namespace of objects."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._objects: Dict[str, StoredObject] = {}

    def put(self, key: str, data: bytes, metadata: Optional[Dict[str, str]] = None) -> StoredObject:
        previous = self._objects.get(key)
        obj = StoredObject(
            key=key,
            data=bytes(data),
            metadata=dict(metadata or {}),
            version=(previous.version + 1) if previous is not None else 1,
        )
        self._objects[key] = obj
        return obj

    def version(self, key: str) -> int:
        """Current write-counter version of ``key`` (0 if absent)."""
        obj = self._objects.get(key)
        return obj.version if obj is not None else 0

    def get(self, key: str) -> StoredObject:
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchObjectError(f"s3://{self.name}/{key}") from None

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise NoSuchObjectError(f"s3://{self.name}/{key}")
        del self._objects[key]

    def list(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def total_bytes(self, prefix: str = "") -> int:
        return sum(o.size for k, o in self._objects.items() if k.startswith(prefix))


class ObjectStore:
    """A collection of buckets (one S3-compatible endpoint)."""

    def __init__(self, name: str = "ocs-store") -> None:
        self.name = name
        self._buckets: Dict[str, Bucket] = {}

    # -- bucket management ---------------------------------------------------

    def create_bucket(self, name: str) -> Bucket:
        if name in self._buckets:
            raise BucketAlreadyExistsError(name)
        bucket = Bucket(name)
        self._buckets[name] = bucket
        return bucket

    def bucket(self, name: str) -> Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise NoSuchBucketError(name) from None

    def list_buckets(self) -> List[str]:
        return sorted(self._buckets)

    # -- object operations ------------------------------------------------------

    def put_object(
        self, bucket: str, key: str, data: bytes, metadata: Optional[Dict[str, str]] = None
    ) -> StoredObject:
        return self.bucket(bucket).put(key, data, metadata)

    def get_object(self, bucket: str, key: str) -> bytes:
        return self.bucket(bucket).get(key).data

    def get_object_range(self, bucket: str, key: str, start: int, length: int) -> bytes:
        data = self.bucket(bucket).get(key).data
        if start < 0 or length < 0 or start + length > len(data):
            raise InvalidRangeError(
                f"range [{start}, {start + length}) outside object of {len(data)} bytes"
            )
        return data[start : start + length]

    def head_object(self, bucket: str, key: str) -> Dict[str, object]:
        obj = self.bucket(bucket).get(key)
        return {
            "key": obj.key,
            "size": obj.size,
            "metadata": dict(obj.metadata),
            "version": obj.version,
        }

    def object_version(self, bucket: str, key: str) -> int:
        """Write-counter version of an object; 0 when it does not exist."""
        return self.bucket(bucket).version(key)

    def list_objects(self, bucket: str, prefix: str = "") -> List[str]:
        return self.bucket(bucket).list(prefix)

    def iter_objects(self, bucket: str, prefix: str = "") -> Iterator[StoredObject]:
        b = self.bucket(bucket)
        for key in b.list(prefix):
            yield b.get(key)
