// Copy-on-write hygiene, negative space: const receivers resolve to the
// const overload, std::as_const makes read intent explicit, and genuine
// writes through the pointer are what the mutable overload is for.

namespace cni_fix
{

unsigned char buf[64];

void
constReceiverUsesConstOverload(const cni::NetMsg &msg)
{
    std::memcpy(buf, msg.payload.data(), msg.payload.size());
}

void
explicitAsConst(cni::NetMsg msg)
{
    std::memcpy(buf, std::as_const(msg.payload).data(),
                msg.payload.size());
}

void
writeThroughIsIntended(cni::MsgPayload p)
{
    p.data()[0] = 1;
    std::memcpy(p.data(), buf, 8);
}

void
fillFromMemory(cni::NodeMemory &mem, cni::MsgPayload p)
{
    mem.read(0x40, p.data(), p.size());
}

} // namespace cni_fix
