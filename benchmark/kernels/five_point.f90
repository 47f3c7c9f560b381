PROGRAM five_point
PARAM N = 64
REAL SRC(N,N), DST(N,N)
REAL C1 = 0.15, C2 = 0.2, C3 = 0.3, C4 = 0.2, C5 = 0.15
!HPF$ DISTRIBUTE SRC(BLOCK,BLOCK)
!HPF$ DISTRIBUTE DST(BLOCK,BLOCK)
DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,2:N-1) &
                 + C2 * SRC(2:N-1,1:N-2) &
                 + C3 * SRC(2:N-1,2:N-1) &
                 + C4 * SRC(3:N ,2:N-1) &
                 + C5 * SRC(2:N-1,3:N )
END
