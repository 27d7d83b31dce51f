/**
 * @file
 * Implementation of the snapshot writer/reader.
 */

#include "sim/snapshot.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <system_error>

#include "common/logging.hpp"

namespace dhl {
namespace sim {

namespace {

constexpr std::string_view kMagic = "dhl-snapshot 2";

constexpr char kHexDigits[] = "0123456789abcdef";

/** One packed element: a space and 16 hex digits. */
constexpr std::size_t kPackedWidth = 17;

/** Lowercase hex digit value, or 0xff for any other byte. */
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(0xff);
    for (int i = 0; i < 16; ++i)
        t[static_cast<unsigned char>(kHexDigits[i])] =
            static_cast<std::uint8_t>(i);
    return t;
}();

/** Write @p v as 16 lowercase hex digits at @p out; return the end. */
char *
putHex64(char *out, std::uint64_t v)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        *out++ = kHexDigits[(v >> shift) & 0xf];
    return out;
}

std::string
toHex64(std::uint64_t v)
{
    std::string out(18, '0');
    out[1] = 'x';
    putHex64(out.data() + 2, v);
    return out;
}

/** Decimal or `0x` hex; false unless the whole of @p text parses. */
bool
parseU64(std::string_view text, std::uint64_t &v)
{
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && text[1] == 'x') {
        first += 2;
        base = 16;
    }
    const auto [ptr, ec] = std::from_chars(first, last, v, base);
    return ec == std::errc() && ptr == last;
}

/** Split off the text up to the next newline (or the end). */
std::string_view
takeLine(std::string_view &rest)
{
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    return line;
}

/** The rest of @p is, read in one pass into one buffer. */
std::string
readAll(std::istream &is)
{
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    std::string text;
    std::size_t used = 0;
    do {
        text.resize(used + kChunk);
        is.read(text.data() + used, kChunk);
        used += static_cast<std::size_t>(is.gcount());
    } while (is);
    text.resize(used);
    return text;
}

} // namespace

//===========================================================================
// SnapshotWriter
//===========================================================================

SnapshotWriter::SnapshotWriter(std::ostream &os) : os_(os)
{
    os_ << kMagic << "\n";
}

void
SnapshotWriter::push(std::string_view scope)
{
    scope_lens_.push_back(prefix_.size());
    prefix_.append(scope);
    prefix_.push_back('.');
}

void
SnapshotWriter::pop()
{
    panic_if(scope_lens_.empty(), "snapshot writer scope underflow");
    prefix_.resize(scope_lens_.back());
    scope_lens_.pop_back();
}

std::string
SnapshotWriter::fullKey(std::string_view key) const
{
    std::string full = prefix_;
    full.append(key);
    return full;
}

void
SnapshotWriter::putString(std::string_view key, std::string_view value)
{
    fatal_if(value.find('\n') != std::string_view::npos,
             "snapshot values must not contain newlines");
    os_ << fullKey(key) << " = " << value << "\n";
}

void
SnapshotWriter::putU64(std::string_view key, std::uint64_t value)
{
    os_ << fullKey(key) << " = " << value << "\n";
}

void
SnapshotWriter::putI64(std::string_view key, std::int64_t value)
{
    os_ << fullKey(key) << " = " << value << "\n";
}

void
SnapshotWriter::putBool(std::string_view key, bool value)
{
    os_ << fullKey(key) << " = " << (value ? "true" : "false") << "\n";
}

void
SnapshotWriter::putDouble(std::string_view key, double value)
{
    os_ << fullKey(key) << " = "
        << toHex64(std::bit_cast<std::uint64_t>(value)) << "\n";
}

void
SnapshotWriter::putDoubles(std::string_view key,
                           std::span<const double> values)
{
    std::string line = fullKey(key);
    line.append(" = ").append(std::to_string(values.size()));
    const std::size_t head = line.size();
    line.resize(head + values.size() * kPackedWidth + 1);
    char *out = line.data() + head;
    for (const double v : values) {
        *out++ = ' ';
        out = putHex64(out, std::bit_cast<std::uint64_t>(v));
    }
    *out = '\n';
    os_.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void
SnapshotWriter::putRng(std::string_view key, const Rng &rng)
{
    const RngState s = rng.saveState();
    push(key);
    putU64("s0", s.state[0]);
    putU64("s1", s.state[1]);
    putU64("s2", s.state[2]);
    putU64("s3", s.state[3]);
    putBool("has_spare", s.has_spare);
    putDouble("spare", s.spare);
    pop();
}

//===========================================================================
// SnapshotReader
//===========================================================================

SnapshotReader::SnapshotReader(std::istream &is) : text_(readAll(is))
{
    std::string_view rest(text_);
    if (text_.empty() || takeLine(rest) != kMagic)
        fatal("snapshot: bad or missing header (expected '" +
              std::string(kMagic) + "')");
    while (!rest.empty()) {
        const std::string_view line = takeLine(rest);
        if (line.empty() || line[0] == '#')
            continue;
        const auto sep = line.find(" = ");
        if (sep == std::string_view::npos)
            fatal("snapshot: malformed line '" + std::string(line) + "'");
        const std::string_view key = line.substr(0, sep);
        if (!values_.emplace(key, line.substr(sep + 3)).second)
            fatal("snapshot: duplicate key '" + std::string(key) + "'");
    }
}

void
SnapshotReader::push(std::string_view scope)
{
    scope_lens_.push_back(prefix_.size());
    prefix_.append(scope);
    prefix_.push_back('.');
}

void
SnapshotReader::pop()
{
    panic_if(scope_lens_.empty(), "snapshot reader scope underflow");
    prefix_.resize(scope_lens_.back());
    scope_lens_.pop_back();
}

std::string
SnapshotReader::fullKey(std::string_view key) const
{
    std::string full = prefix_;
    full.append(key);
    return full;
}

bool
SnapshotReader::has(std::string_view key) const
{
    return values_.count(fullKey(key)) != 0;
}

std::string_view
SnapshotReader::rawValue(std::string_view key) const
{
    const std::string full = fullKey(key);
    const auto it = values_.find(full);
    if (it == values_.end())
        fatal("snapshot: missing key '" + full + "'");
    return it->second;
}

void
SnapshotReader::badValue(std::string_view what, std::string_view key,
                         std::string_view text) const
{
    fatal("snapshot: bad " + std::string(what) + " for '" + fullKey(key) +
          "': '" + std::string(text) + "'");
}

std::string
SnapshotReader::getString(std::string_view key) const
{
    return std::string(rawValue(key));
}

std::uint64_t
SnapshotReader::getU64(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    std::uint64_t v = 0;
    if (!parseU64(text, v))
        badValue("integer", key, text);
    return v;
}

std::int64_t
SnapshotReader::getI64(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    const char *last = text.data() + text.size();
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        badValue("integer", key, text);
    return v;
}

bool
SnapshotReader::getBool(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    if (text == "true")
        return true;
    if (text != "false")
        badValue("bool", key, text);
    return false;
}

double
SnapshotReader::getDouble(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    std::uint64_t bits = 0;
    if (!parseU64(text, bits))
        badValue("integer", key, text);
    return std::bit_cast<double>(bits);
}

std::vector<double>
SnapshotReader::getDoubles(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    const char *const last = text.data() + text.size();
    std::uint64_t n = 0;
    const auto [p, ec] = std::from_chars(text.data(), last, n);
    // Compare by division: a hostile count near 2^64 must not wrap.
    const auto body = static_cast<std::size_t>(last - p);
    bool bad = ec != std::errc() || body % kPackedWidth != 0 ||
               body / kPackedWidth != n;
    std::vector<double> values;
    if (!bad) {
        values.resize(body / kPackedWidth);
        const char *in = p;
        for (double &v : values) {
            bad |= *in++ != ' ';
            std::uint64_t bits = 0;
            for (int i = 0; i < 16; ++i) {
                const std::uint8_t d =
                    kHexValue[static_cast<unsigned char>(*in++)];
                bad |= d > 0xf;
                bits = bits << 4 | (d & 0xf);
            }
            v = std::bit_cast<double>(bits);
        }
    }
    if (bad)
        fatal("snapshot: bad packed doubles for '" + fullKey(key) + "'");
    return values;
}

void
SnapshotReader::getRng(std::string_view key, Rng &rng) const
{
    RngState s{};
    auto *self = const_cast<SnapshotReader *>(this);
    self->push(key);
    s.state[0] = getU64("s0");
    s.state[1] = getU64("s1");
    s.state[2] = getU64("s2");
    s.state[3] = getU64("s3");
    s.has_spare = getBool("has_spare");
    s.spare = getDouble("spare");
    self->pop();
    rng.restoreState(s);
}

} // namespace sim
} // namespace dhl
