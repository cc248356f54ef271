#include "base/serde.hh"

namespace ctg
{
namespace serde
{

namespace
{

struct CrcTable
{
    std::uint32_t entries[256];

    constexpr CrcTable()
        : entries()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            entries[i] = c;
        }
    }
};

constexpr CrcTable crcTable;

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = crcTable.entries[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
Writer::putBytes(const void *data, std::size_t len)
{
    if (len == 0)
        return; // data may be null (an empty vector's data())
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Writer::beginSection(std::uint32_t id)
{
    open_.push_back(buf_.size());
    putU32(id);
    putU32(0); // reserved
    putU64(0); // payload length, patched by endSection()
}

void
Writer::endSection()
{
    if (open_.empty())
        throw Error("serde: endSection without beginSection");
    const std::size_t header = open_.back();
    open_.pop_back();
    const std::size_t payloadStart = header + 16;
    const std::uint64_t payloadLen = buf_.size() - payloadStart;
    for (int i = 0; i < 8; ++i)
        buf_[header + 8 + i] =
            static_cast<std::uint8_t>(payloadLen >> (8 * i));
    putU32(crc32(buf_.data() + payloadStart,
                 static_cast<std::size_t>(payloadLen)));
}

std::string
Reader::getString()
{
    const std::uint64_t len = getU64();
    if (len > remaining())
        throw Error("serde: string length exceeds payload");
    std::string s(reinterpret_cast<const char *>(data_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
}

void
Reader::getBytes(void *out, std::size_t len)
{
    if (len == 0)
        return; // out may be null (an empty vector's data())
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

Reader::Section
Reader::nextSection()
{
    need(16);
    const std::uint32_t id = getU32();
    const std::uint32_t reserved = getU32();
    if (reserved != 0)
        throw Error("serde: nonzero reserved field in section " +
                    std::to_string(id));
    const std::uint64_t payloadLen = getU64();
    if (payloadLen > remaining())
        throw Error("serde: section " + std::to_string(id) +
                    " payload truncated (" +
                    std::to_string(payloadLen) + " > " +
                    std::to_string(remaining()) + ")");
    const std::uint8_t *payload = data_ + pos_;
    pos_ += static_cast<std::size_t>(payloadLen);
    const std::uint32_t want = getU32();
    const std::uint32_t got =
        crc32(payload, static_cast<std::size_t>(payloadLen));
    if (want != got)
        throw Error("serde: CRC mismatch in section " +
                    std::to_string(id));
    return Section{
        id, Reader(payload, static_cast<std::size_t>(payloadLen))};
}

} // namespace serde
} // namespace ctg
