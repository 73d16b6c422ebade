// Edge cases of the nonblocking Request machinery.
#include <gtest/gtest.h>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

TEST(RequestEdge, DefaultRequestIsComplete) {
  Request req;
  EXPECT_FALSE(req.pending());
  EXPECT_EQ(req.wait(), -1);
  EXPECT_TRUE(req.test());
}

TEST(RequestEdge, MoveTransfersPendingState) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 5);
    } else {
      int v = 0;
      Request a = comm.irecv(0, 0, std::span<int>(&v, 1));
      Request b = std::move(a);
      EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move)
      EXPECT_TRUE(b.pending());
      b.wait();
      EXPECT_EQ(v, 5);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(RequestEdge, SizeMismatchSurfacesAtWait) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> two{1, 2};
      comm.send(1, 0, std::span<const int>(two));
    } else {
      int v = 0;  // too small for the incoming message
      Request req = comm.irecv(0, 0, std::span<int>(&v, 1));
      EXPECT_THROW(req.wait(), UsageError);
      EXPECT_FALSE(req.pending());  // failed request is complete
    }
  });
  EXPECT_TRUE(result.ok);  // the throw was caught inside the body
}

TEST(RequestEdge, AnySourceIrecvResolvesActualSender) {
  const auto result = Runtime::run(3, [](Comm& comm) {
    if (comm.rank() == 2) {
      comm.send_value(0, 4, 7.0);
    } else if (comm.rank() == 0) {
      double v = 0.0;
      Request req = comm.irecv(kAnySource, 4, std::span<double>(&v, 1));
      EXPECT_EQ(req.wait(), 2);
      EXPECT_DOUBLE_EQ(v, 7.0);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(RequestEdge, IrecvPostedBeforeSendDoesNotBlock) {
  // Regression guard for the post-before-send pattern: irecv must defer
  // its matching to wait(). An eager irecv would block rank 1 here before
  // it reaches the barrier, deadlocking the job.
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0.0;
      Request req = comm.irecv(0, 3, std::span<double>(&v, 1));
      comm.barrier();  // reachable only if irecv did not receive eagerly
      EXPECT_EQ(req.wait(), 0);
      EXPECT_DOUBLE_EQ(v, 2.5);
    } else {
      comm.barrier();
      comm.send_value(1, 3, 2.5);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(RequestEdge, WaitIsIdempotent) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 1);
    } else {
      int v = 0;
      Request req = comm.irecv(0, 0, std::span<int>(&v, 1));
      req.wait();
      EXPECT_EQ(req.wait(), -1);  // second wait is a no-op
      EXPECT_TRUE(req.test());
    }
  });
  EXPECT_TRUE(result.ok);
}

}  // namespace
}  // namespace resilience::simmpi
