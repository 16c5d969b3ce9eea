// Fixture for the profile-observer rule: writes and reads inside a
// (multi-line) LUMI_CHECK pass; a read that could steer timing is
// flagged. Comments never count: profile_.sm(0).sum().

void
account(CycleProfile &profile_, const Gpu &gpu, uint64_t now)
{
    profile_.addSm(0, SmCycleBucket::Issued, 1);
    LUMI_CHECK(Profile, profile_.sm(0).sum() == now, "leak: %llu",
               (unsigned long long)profile_.rtTotal().sum());
    if (profile_.sm(0).sum() > now)          // expect(profile-observer)
        now = gpu.profile().smTotal().sum(); // expect(profile-observer)
}
