"""S3-class object storage: flat bucket/object namespace.

Reproduces the storage layer of the paper's Section 2.2: objects under
flat buckets, byte-range GETs (how a Parcel reader fetches footers and
column chunks selectively) and LIST with prefixes.
"""

from repro.objectstore.store import Bucket, ObjectStore, StoredObject

__all__ = ["Bucket", "ObjectStore", "StoredObject"]
