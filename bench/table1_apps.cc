/**
 * @file
 * Table 1: applications and problem sizes. Regenerated from the
 * workload parameter structs so the table always reflects what the
 * benches actually run.
 */

#include <cstdio>

#include "BenchCommon.hh"
#include "apps/Grep.hh"
#include "apps/HashJoin.hh"
#include "apps/Md5App.hh"
#include "apps/MpegFilter.hh"
#include "apps/ParallelSort.hh"
#include "apps/Reduction.hh"
#include "apps/Select.hh"
#include "apps/Tar.hh"

int
main(int argc, char **argv)
{
    san::bench::Flags().parse(argc, argv); // takes no flags
    using namespace san::apps;
    MpegParams mpeg;
    HashJoinParams hj;
    SelectParams sel;
    GrepParams grep;
    TarParams tar;
    SortParams sort;
    Md5Params md5;
    ReductionParams red;

    std::printf("Table 1. Applications and Problem Sizes\n");
    std::printf("%-22s %s\n", "Applications", "Input Data Size (Bytes)");
    std::printf("%-22s %llu\n", "MPEG filter",
                static_cast<unsigned long long>(mpeg.fileBytes));
    std::printf("%-22s %lluM x %lluM\n", "HashJoin",
                static_cast<unsigned long long>(hj.rBytes >> 20),
                static_cast<unsigned long long>(hj.sBytes >> 20));
    std::printf("%-22s %lluM\n", "Select",
                static_cast<unsigned long long>(sel.tableBytes >> 20));
    std::printf("%-22s %llu\n", "Grep",
                static_cast<unsigned long long>(grep.fileBytes));
    std::printf("%-22s %lluM\n", "Tar",
                static_cast<unsigned long long>(tar.totalBytes >> 20));
    std::printf("%-22s %lluM\n", "Parallel sort",
                static_cast<unsigned long long>(sort.totalBytes >> 20));
    std::printf("%-22s %lluK\n", "MD5",
                static_cast<unsigned long long>(md5.fileBytes >> 10));
    std::printf("%-22s %u\n", "Collective Reduction",
                red.vectorBytes);
    return 0;
}
