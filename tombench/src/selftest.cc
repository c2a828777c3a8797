/**
 * @file
 * Tests of the benchmark's own reporting rules.
 */
#include <gtest/gtest.h>

#include "report.hh"

using namespace tombench;

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(1000), 99);  // rank 990, 10 beyond
    EXPECT_EQ(tailPercentile(999), 95);   // p99 rank 990 leaves 9
    EXPECT_EQ(tailPercentile(200), 95);   // rank 190, 10 beyond
    EXPECT_EQ(tailPercentile(199), 90);
    EXPECT_EQ(tailPercentile(100), 90);   // rank 90, 10 beyond
    EXPECT_EQ(tailPercentile(40), 75);
    EXPECT_EQ(tailPercentile(20), 50);
    EXPECT_EQ(tailPercentile(19), 0);
    EXPECT_EQ(tailPercentile(0), 0);
    EXPECT_EQ(tailPercentile(1'000'000), 99); // capped at p99
}

TEST(Summarize, NearestRankAndSampleCount)
{
    std::vector<double> samples;
    for (int i = 1000; i >= 1; --i)
        samples.push_back(double(i));
    Summary s = summarize(samples);
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tailPct, 99);
    EXPECT_EQ(s.tail, 990.0);
    EXPECT_DOUBLE_EQ(s.mean, 500.5);

    std::vector<double> few = {3, 1, 2};
    Summary f = summarize(few);
    EXPECT_EQ(f.n, 3u);
    EXPECT_EQ(f.p50, 2.0);
    EXPECT_EQ(f.tailPct, 0);
    EXPECT_EQ(f.tail, f.p50); // too few samples for a tail

    std::vector<double> none;
    EXPECT_EQ(summarize(none).n, 0u);
}

TEST(TailPercentile, Cap)
{
    EXPECT_EQ(tailPercentile(1'000'000, 95), 95);
    EXPECT_EQ(tailPercentile(200, 95), 95);
    EXPECT_EQ(tailPercentile(199, 95), 90);
    EXPECT_EQ(tailPercentile(19, 95), 0);

    std::vector<double> samples;
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(double(i));
    Summary s = summarize(samples, kEndToEndTailCap);
    EXPECT_EQ(s.tailPct, 95);
    EXPECT_EQ(s.tail, 950.0);
}

TEST(MetricNames, Grammar)
{
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_TRUE(validMetricName("sim.measure_ms"));
    EXPECT_TRUE(validMetricName("0-based.x_y"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_hidden"));
    EXPECT_FALSE(validMetricName(".dot"));
    EXPECT_FALSE(validMetricName("-dash"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName("pct%"));
}

TEST(MetricUnits, Grammar)
{
    for (const char *unit : {"ms", "s", "1/s", "count", "%", "MiB", "frac"})
        EXPECT_TRUE(validMetricUnit(unit)) << unit;
    EXPECT_FALSE(validMetricUnit(""));
    EXPECT_FALSE(validMetricUnit(std::string(17, 'x')));
    EXPECT_FALSE(validMetricUnit("m s"));
    EXPECT_FALSE(validMetricUnit("\"q\""));
}

TEST(Outcome, RejectsBadAndDuplicateNames)
{
    Outcome out;
    out.add("ok_name", "s", 1.0);
    EXPECT_THROW(out.add("ok_name", "s", 2.0), std::invalid_argument);
    EXPECT_THROW(out.add("bad name", "s", 2.0), std::invalid_argument);
    EXPECT_THROW(out.add("good", "bad unit", 2.0), std::invalid_argument);
}

TEST(ResultJson, Shape)
{
    Outcome out;
    out.attempted = 3;
    out.add("latency_ms", "ms", 1.25);
    EXPECT_EQ(resultJson(out),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
              "\"ms\"}}}");
    out.failed = 1;
    EXPECT_EQ(resultJson(out, "w.").find("\"w.latency_ms\"") !=
                  std::string::npos,
              true);
    EXPECT_FALSE(out.correct());
}

TEST(Median, NearestRank)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({5.0}), 5.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0); // rank ceil(4/2)
    EXPECT_EQ(median({9.0, 1.0, 5.0}), 5.0);
}
