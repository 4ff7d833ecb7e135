/**
 * @file
 * Golden-file comparison shared by every golden test: compare an
 * output byte for byte with a file under tests/golden/, or rewrite
 * that file when the environment sets SAN_UPDATE_GOLDEN, e.g.
 *
 *     SAN_UPDATE_GOLDEN=1 ctest -R 'Golden|LatencyReport|TraceExport'
 *
 * Commit a regenerated file alongside the change that moved it.
 */

#ifndef SAN_TESTS_GOLDEN_HH
#define SAN_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef SAN_GOLDEN_DIR
#error "SAN_GOLDEN_DIR must point at tests/golden"
#endif

namespace san::test {

/** True when SAN_UPDATE_GOLDEN asks for the goldens to be rewritten;
 * a test that rewrote its files should then GTEST_SKIP. */
inline bool
updatingGoldens()
{
    return std::getenv("SAN_UPDATE_GOLDEN") != nullptr;
}

/** Path of @p file under tests/golden. */
inline std::string
goldenPath(const std::string &file)
{
    return std::string(SAN_GOLDEN_DIR) + "/" + file;
}

/** Expect @p actual to equal golden @p file, or rewrite the file. */
inline void
expectMatchesGolden(const std::string &actual, const std::string &file)
{
    const std::string path = goldenPath(file);
    if (updatingGoldens()) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << "; generate it with SAN_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual, golden.str())
        << "output diverged from " << path
        << "\nIf this change is intended, regenerate with "
           "SAN_UPDATE_GOLDEN=1 and commit the new golden file.";
}

} // namespace san::test

#endif // SAN_TESTS_GOLDEN_HH
