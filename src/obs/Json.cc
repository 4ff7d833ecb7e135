#include "obs/Json.hh"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace san::obs {

JsonWriter::JsonWriter(std::ostream &os, int indent, std::size_t depth)
    : os_(os), indent_(indent), depth_(depth)
{}

void
JsonWriter::newlineIndent()
{
    os_ << '\n';
    for (std::size_t i = 0; i < depth_ + stack_.size(); ++i)
        for (int s = 0; s < indent_; ++s)
            os_ << ' ';
}

void
JsonWriter::separate([[maybe_unused]] bool is_key)
{
    if (afterKey_) {
        // A value directly following its key stays on the same line.
        assert(!is_key && "key after key");
        afterKey_ = false;
        return;
    }
    if (!stack_.empty()) {
        assert((is_key == stack_.back()) &&
               "keys only in objects, bare values only in arrays");
        if (!firstInScope_)
            os_ << ',';
        newlineIndent();
        firstInScope_ = false;
    }
}

void
JsonWriter::escaped(std::string_view s)
{
    os_ << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os_ << "\\\""; break;
          case '\\': os_ << "\\\\"; break;
          case '\n': os_ << "\\n"; break;
          case '\t': os_ << "\\t"; break;
          case '\r': os_ << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os_ << buf;
            } else {
                os_ << c;
            }
        }
    }
    os_ << '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate(false);
    os_ << '{';
    stack_.push_back(true);
    firstInScope_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    assert(!stack_.empty() && stack_.back());
    const bool empty = firstInScope_;
    stack_.pop_back();
    firstInScope_ = false;
    if (!empty)
        newlineIndent();
    os_ << '}';
    if (stack_.empty() && depth_ == 0)
        os_ << '\n';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate(false);
    os_ << '[';
    stack_.push_back(false);
    firstInScope_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    assert(!stack_.empty() && !stack_.back());
    const bool empty = firstInScope_;
    stack_.pop_back();
    firstInScope_ = false;
    if (!empty)
        newlineIndent();
    os_ << ']';
    if (stack_.empty() && depth_ == 0)
        os_ << '\n';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate(true);
    escaped(k);
    os_ << ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate(false);
    escaped(s);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    return value(std::string_view(s));
}

void
JsonWriter::writeNumber(std::ostream &os, double d)
{
    // Integral doubles (tick counts, byte totals) print as integers;
    // everything else in shortest round-trip form, which is unique
    // for a given bit pattern and therefore golden-file stable.
    if (!std::isfinite(d)) {
        os << "null"; // JSON has no NaN/inf
        return;
    }
    if (d == 0.0)
        d = 0.0; // collapse -0.0
    char buf[40];
    const auto res =
        std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15
            ? std::to_chars(buf, buf + sizeof(buf),
                            static_cast<std::int64_t>(d))
            : std::to_chars(buf, buf + sizeof(buf), d);
    os.write(buf, res.ptr - buf);
}

JsonWriter &
JsonWriter::value(double d)
{
    separate(false);
    writeNumber(os_, d);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate(false);
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os_.write(buf, res.ptr - buf);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate(false);
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os_.write(buf, res.ptr - buf);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool b)
{
    separate(false);
    os_ << (b ? "true" : "false");
    return *this;
}

} // namespace san::obs
