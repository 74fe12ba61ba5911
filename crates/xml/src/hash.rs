//! Stable content hashing for the stack.
//!
//! Several layers above the XML substrate need a hash of document text
//! that is deterministic across processes and platforms — unlike `std`'s
//! `RandomState` — so that spec-cache keys, shard assignments, and any
//! logs naming them are reproducible: `navsep-aspect` keys compiled specs
//! by it, `navsep-web` assigns page ids to store shards with it. One
//! implementation lives here so the layers cannot drift apart.

/// 64-bit FNV-1a over `bytes`.
///
/// # Examples
///
/// ```
/// use navsep_xml::fnv1a64;
///
/// assert_eq!(fnv1a64(b"links.xml"), fnv1a64(b"links.xml"));
/// assert_ne!(fnv1a64(b"links.xml"), fnv1a64(b"transform.xml"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl crate::Document {
    /// [`fnv1a64`] of the document's default serialization
    /// ([`to_xml_string`](crate::Document::to_xml_string)), **memoized**:
    /// the first call serializes and hashes, later calls return the stored
    /// value, and any mutation resets the memo. Cloning carries the memo
    /// along (a clone has identical content).
    ///
    /// This is the key the spec caches above (`navsep-aspect`'s
    /// `SpecCache`, `navsep-core`'s `WeaveCache`) look compiled artifacts
    /// up by — memoizing it here makes their steady-state hit path O(1)
    /// instead of a full re-serialization per weave.
    ///
    /// # Examples
    ///
    /// ```
    /// use navsep_xml::{fnv1a64, Document};
    ///
    /// let mut doc = Document::parse("<a>one</a>")?;
    /// let first = doc.content_hash();
    /// assert_eq!(first, fnv1a64(doc.to_xml_string().as_bytes()));
    /// assert_eq!(doc.clone().content_hash(), first);
    ///
    /// // Mutation invalidates the memo.
    /// let root = doc.root_element().unwrap();
    /// doc.set_attribute(root, "id", "x");
    /// assert_ne!(doc.content_hash(), first);
    /// # Ok::<(), navsep_xml::ParseXmlError>(())
    /// ```
    pub fn content_hash(&self) -> u64 {
        *self
            .cached_hash
            .get_or_init(|| fnv1a64(self.to_xml_string().as_bytes()))
    }

    /// [`content_hash`](crate::Document::content_hash), plus the
    /// serialization it was computed from when this call is the one that
    /// computed it (`None` when the memo was already set). A caller that
    /// needs both the key and the bytes of a fresh document — a store
    /// publishing a newly woven page — serializes it once instead of
    /// twice, and the memo holds the hash of exactly those bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use navsep_xml::{fnv1a64, Document};
    ///
    /// let doc = Document::parse("<a>one</a>")?;
    /// let (hash, xml) = doc.content_hash_with_render();
    /// let xml = xml.expect("first call renders");
    /// assert_eq!(xml, doc.to_xml_string());
    /// assert_eq!(hash, fnv1a64(xml.as_bytes()));
    /// // The memo is seeded: later calls neither render nor rehash.
    /// assert_eq!(doc.content_hash_with_render(), (hash, None));
    /// assert_eq!(doc.content_hash(), hash);
    /// # Ok::<(), navsep_xml::ParseXmlError>(())
    /// ```
    pub fn content_hash_with_render(&self) -> (u64, Option<String>) {
        if let Some(&hash) = self.cached_hash.get() {
            return (hash, None);
        }
        let xml = self.to_xml_string();
        let hash = *self.cached_hash.get_or_init(|| fnv1a64(xml.as_bytes()));
        (hash, Some(xml))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sensitive_to_every_byte() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_ne!(fnv1a64(b"x"), fnv1a64(b"x\0"));
    }

    #[test]
    fn content_hash_matches_serialized_hash() {
        let doc = crate::Document::parse("<site><page id='a'/></site>").unwrap();
        assert_eq!(doc.content_hash(), fnv1a64(doc.to_xml_string().as_bytes()));
        // Memoized: a second call returns the identical value.
        assert_eq!(doc.content_hash(), doc.content_hash());
        // Equal content parsed separately hashes equal.
        let again = crate::Document::parse("<site><page id='a'/></site>").unwrap();
        assert_eq!(doc.content_hash(), again.content_hash());
    }

    #[test]
    fn content_hash_survives_clone_and_resets_on_mutation() {
        let mut doc = crate::Document::parse("<site><page/></site>").unwrap();
        let before = doc.content_hash();
        assert_eq!(doc.clone().content_hash(), before);

        let root = doc.root_element().unwrap();
        doc.create_element(root, "extra");
        let after = doc.content_hash();
        assert_ne!(before, after, "mutation must invalidate the memo");
        assert_eq!(after, fnv1a64(doc.to_xml_string().as_bytes()));

        // Every mutation path resets, including attribute edits and detach.
        doc.set_attribute(root, "k", "v");
        let with_attr = doc.content_hash();
        assert_ne!(after, with_attr);
        let child = doc.children(root)[0];
        doc.detach(child);
        assert_ne!(with_attr, doc.content_hash());
    }
}
