PROGRAM nine_point_array
PARAM N = 64
REAL SRC(N,N), DST(N,N)
REAL C1 = 0.0625, C2 = 0.125, C3 = 0.0625, C4 = 0.125, C5 = 0.25
REAL C6 = 0.125, C7 = 0.0625, C8 = 0.125, C9 = 0.0625
!HPF$ DISTRIBUTE SRC(BLOCK,BLOCK)
!HPF$ DISTRIBUTE DST(BLOCK,BLOCK)
DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,1:N-2) + C2 * SRC(1:N-2,2:N-1) &
                 + C3 * SRC(1:N-2,3:N) + C4 * SRC(2:N-1,1:N-2) &
                 + C5 * SRC(2:N-1,2:N-1) + C6 * SRC(2:N-1,3:N) &
                 + C7 * SRC(3:N,1:N-2) + C8 * SRC(3:N,2:N-1) &
                 + C9 * SRC(3:N,3:N)
END
