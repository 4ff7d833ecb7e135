/**
 * @file
 * Minimal streaming JSON writer for machine-readable stat dumps and
 * the benches' stdout reports.
 *
 * Emits deterministic, byte-stable output suitable for golden-file
 * comparison: keys appear in emission order, numbers are formatted
 * with std::to_chars (shortest round-trip form, so the same double
 * always prints the same bytes on every conforming implementation),
 * and integral doubles print without an exponent or trailing ".0".
 */

#ifndef SAN_OBS_JSON_HH
#define SAN_OBS_JSON_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace san::obs {

/** Streaming writer producing pretty-printed, stable JSON. */
class JsonWriter
{
  public:
    /** Writes to @p os; @p indent spaces per nesting level. A value
     * to be spliced into an enclosing document passes the @p depth it
     * sits at there: its lines are indented for that place, and it
     * ends without the newline that closes a whole document. */
    explicit JsonWriter(std::ostream &os, int indent = 2,
                        std::size_t depth = 0);

    /** @{ Containers. Root value must be exactly one value. */
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** @} */

    /** Emit the key of the next member (inside an object). */
    JsonWriter &key(std::string_view k);

    /** @{ Scalar values. */
    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s);
    JsonWriter &value(double d);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(int v);
    JsonWriter &value(bool b);
    /** @} */

    /**
     * Write @p d in value(double)'s form to @p os without any
     * separator: for line formats (CSV, JSON lines) that share the
     * writer's number rule.
     */
    static void writeNumber(std::ostream &os, double d);

    /** @{ key + value in one call, the common case. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }
    /** @} */

  private:
    void separate(bool is_key);
    void newlineIndent();
    void escaped(std::string_view s);

    std::ostream &os_;
    int indent_;
    std::size_t depth_;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> stack_;
    bool firstInScope_ = true;
    bool afterKey_ = false;
};

} // namespace san::obs

#endif // SAN_OBS_JSON_HH
