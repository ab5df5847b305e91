// MC-seam completeness, positive case: a CoherenceDomain backend whose
// effective mc* override set is partial. Self-contained — the check
// needs only the root class and its subclasses.

class McEncoder;

class CoherenceDomain
{
  public:
    virtual ~CoherenceDomain() = default;
    virtual const void *mcSnapshot() const { return nullptr; }
    virtual void mcRestore(const void *snap) { (void)snap; }
    virtual void mcEncode(McEncoder &enc) const { (void)enc; }
    virtual void mcEncodeWire(McEncoder &enc, const unsigned char *blob,
                              unsigned long len) const
    {
        (void)enc;
        (void)blob;
        (void)len;
    }
    virtual bool mcQuiescent(char **why) const
    {
        (void)why;
        return true;
    }
    virtual unsigned long mcParkDepth() const { return 0; }
};

class PartialBackend : public CoherenceDomain // CNICHECK-EXPECT: mc-seam
{
  public:
    const void *mcSnapshot() const override { return this; }
    void mcRestore(const void *snap) override { (void)snap; }
    bool mcQuiescent(char **why) const override
    {
        (void)why;
        return true;
    }
    unsigned long mcParkDepth() const override { return 0; }
    // mcEncode / mcEncodeWire missing: the model checker would fold
    // stale default state into every fingerprint.
};
